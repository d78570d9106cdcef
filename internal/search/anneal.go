package search

import (
	"context"
	"math"
	"math/rand"
	"slices"

	"nocmap/internal/core"
	"nocmap/internal/topology"
	"nocmap/internal/usecase"
)

// Anneal is simulated annealing over core placements. It starts from the
// greedy mapping and explores swap and relocate moves on the placement
// through a core.Session: a move tears down and re-reserves only the flows
// whose endpoints changed seats (falling back to a full configuration pass
// when the incremental order wedges), so every accepted candidate is still
// a complete, feasible multi-use-case configuration — at a fraction of the
// re-validate-and-re-configure cost the per-move core.EvaluateFixed calls
// used to pay. Beyond refining the greedy mesh, it probes smaller meshes
// the greedy constructive order could not fill, using seeded random
// restarts to find a feasible starting placement there. By construction the
// engine never returns a result worse than greedy's under the configured
// cost weights.
type Anneal struct{}

// Name implements Engine.
func (Anneal) Name() string { return "anneal" }

// Search implements Engine.
func (an Anneal) Search(ctx context.Context, prep *usecase.Prepared, numCores int,
	p core.Params, opts Options) (*core.Result, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// The greedy base is computed outside the budget: Options.Budget bounds
	// the improvement search, not feasibility, so a tight budget degrades to
	// the greedy result instead of to an error. External cancellation via
	// ctx still aborts the base — that is a hard deadline, not a budget.
	base := opts.base
	if base == nil {
		var err error
		base, err = core.MapContext(ctx, prep, numCores, p)
		if err != nil {
			return nil, err
		}
	}
	opts.emit(an.Name(), StageMapped, base)
	if opts.Budget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opts.Budget)
		defer cancel()
	}
	evals := opts.evals
	if evals == nil {
		evals = NewEvalCache(prep, numCores, p)
	}
	a := &annealer{
		prep: prep, numCores: numCores, p: p, opts: opts,
		rng:  rand.New(rand.NewSource(opts.Seed)),
		best: base, bestCost: opts.Weights.Of(base),
		evals: evals,
	}
	a.run(ctx, base)
	opts.emitCounts(an.Name(), StageDone, a.best, a.counts)
	return a.best, nil
}

// annealer carries the state of one annealing run; all randomness flows from
// the single seeded PRNG, so a fixed Options.Seed reproduces the run.
type annealer struct {
	prep     *usecase.Prepared
	numCores int
	p        core.Params
	opts     Options
	rng      *rand.Rand
	evals    *EvalCache

	best     *core.Result
	bestCost float64
	// counts accumulate the run's search effort; every emitted event carries
	// the totals so far, so observers need no hook into the move loop.
	counts Counts

	// Proposal scratch, reused across the whole run: the candidate
	// placement, the NI occupancy and the free-seat list. The session's
	// move path allocates nothing, and with these buffers neither does the
	// proposal loop around it.
	csBuf, cnBuf []int
	niLoad       []int
	freeBuf      []int
}

// ensureScratch sizes the proposal buffers for a chain on a fabric with
// numNIs network interfaces.
func (a *annealer) ensureScratch(numNIs int) {
	if a.csBuf == nil {
		a.csBuf = make([]int, a.numCores)
		a.cnBuf = make([]int, a.numCores)
	}
	if cap(a.niLoad) < numNIs {
		a.niLoad = make([]int, numNIs)
		a.freeBuf = make([]int, 0, numNIs)
	}
	a.niLoad = a.niLoad[:numNIs]
}

// run anneals the greedy solution in place, then probes every smaller mesh
// that could still hold the attached cores, largest first. Meshes at or
// above the best-known switch count are skipped: the cost weights make any
// same-or-larger mesh a guaranteed non-improvement.
func (a *annealer) run(ctx context.Context, base *core.Result) {
	a.annealFrom(ctx, base)
	attached := attachedCores(base.Mapping.CoreSwitch)
	for _, dim := range a.shrinkDims(base, len(attached)) {
		if ctx.Err() != nil {
			return
		}
		if dim.Switches() >= a.best.Mapping.SwitchCount() {
			continue
		}
		start := a.feasibleStart(ctx, dim, attached)
		if start == nil {
			continue
		}
		a.consider(start)
		a.annealFrom(ctx, start)
	}
}

// shrinkDims lists topologies smaller than the greedy solution with enough
// core seats, in descending switch count (nearest the greedy size first,
// where a feasible placement is most likely to exist). A custom fabric is a
// single fixed instance, so there is nothing to shrink to.
func (a *annealer) shrinkDims(base *core.Result, attached int) []topology.Dim {
	if !a.p.Topology.Grows() {
		return nil
	}
	baseSwitches := base.Mapping.SwitchCount()
	var dims []topology.Dim
	for _, d := range topology.GrowthSequence(a.p.MaxMeshDim) {
		if d.Switches() >= baseSwitches {
			continue
		}
		if d.Switches()*a.p.CoresPerSwitch() < attached {
			continue
		}
		dims = append(dims, d)
	}
	slices.Reverse(dims)
	return dims
}

// feasibleStart tries Options.Restarts seeded random placements on the
// given size of the configured topology family and returns the first that
// configures feasibly, or nil. The probed size is rejected up front when it
// seats fewer cores than are attached — a shrunk dim must never panic, just
// fail to produce a start.
func (a *annealer) feasibleStart(ctx context.Context, dim topology.Dim, attached []int) *core.Result {
	top, err := a.p.Topology.ForDim(dim, a.p.CoresPerSwitch())
	if err != nil {
		return nil
	}
	ev, err := a.evals.For(top)
	if err != nil {
		return nil
	}
	top = ev.Topology() // the cache's canonical instance for this shape
	numNIs := top.NumSwitches() * a.p.NIsPerSwitch
	seats := make([]int, 0, numNIs*a.p.CoresPerNI)
	for ni := 0; ni < numNIs; ni++ {
		for k := 0; k < a.p.CoresPerNI; k++ {
			seats = append(seats, ni)
		}
	}
	if len(attached) > len(seats) {
		return nil // not enough seats: the probe cannot host every core
	}
	for r := 0; r < a.opts.Restarts; r++ {
		if ctx.Err() != nil {
			return nil
		}
		a.counts.Restarts++
		res, err := ev.Evaluate(a.shuffledPlacement(seats, attached))
		if err == nil {
			return res
		}
	}
	return nil
}

// shuffledPlacement draws one random placement of the attached cores over
// the shuffled seats; unattached cores stay at -1.
func (a *annealer) shuffledPlacement(seats []int, attached []int) (cs, cn []int) {
	a.rng.Shuffle(len(seats), func(i, j int) { seats[i], seats[j] = seats[j], seats[i] })
	cs = make([]int, a.numCores)
	cn = make([]int, a.numCores)
	for i := range cs {
		cs[i], cn[i] = -1, -1
	}
	for i, c := range attached {
		cn[c] = seats[i]
		cs[c] = seats[i] / a.p.NIsPerSwitch
	}
	return cs, cn
}

// annealFrom runs one simulated-annealing chain starting at the given
// feasible result, with a geometric temperature schedule and Metropolis
// acceptance. Moves permute the placement and are scored through a
// core.Session — incremental teardown and re-reservation of the moved
// flows only — with one repair attempt (relocating a disturbed core to the
// emptiest NI) before a candidate is rejected.
func (a *annealer) annealFrom(ctx context.Context, start *core.Result) {
	attached := attachedCores(start.Mapping.CoreSwitch)
	if len(attached) < 2 || a.opts.Iters == 0 {
		return
	}
	ev, err := a.evals.For(start.Mapping.Topology)
	if err != nil {
		return
	}
	// Adopt the start's reservations instead of re-evaluating its placement:
	// constructive results are not always reproducible under fixed-placement
	// routing order, and the chain must start from the configuration the
	// incumbent actually scored.
	sess, err := ev.SessionFrom(start)
	if err != nil {
		return
	}
	switches := ev.Topology().NumSwitches()
	numNIs := switches * a.p.NIsPerSwitch
	a.ensureScratch(numNIs)
	curCost := a.opts.Weights.OfParts(switches, sess.Stats())
	// Initial temperature accepts ~5%-of-cost uphill moves; cool to 1/1000 of
	// that over the run.
	t0 := 0.05*curCost + 1e-9
	alpha := math.Pow(1e-3, 1/float64(a.opts.Iters))
	temp := t0
	for it := 0; it < a.opts.Iters; it++ {
		if ctx.Err() != nil {
			return
		}
		a.counts.Moves++
		stats, ok := a.propose(sess, numNIs, attached)
		if !ok {
			temp *= alpha
			continue
		}
		candCost := a.opts.Weights.OfParts(switches, stats)
		delta := candCost - curCost
		if delta <= 0 || a.rng.Float64() < math.Exp(-delta/temp) {
			sess.Keep()
			a.counts.Accepted++
			curCost = candCost
			if candCost < a.bestCost-1e-12 {
				a.consider(sess.Result())
			}
		} else {
			sess.Undo()
		}
		temp *= alpha
	}
}

// propose generates one neighbouring placement (swap of two cores' seats, or
// relocation of one core to a free seat) and evaluates it incrementally on
// the session. When the configuration phase rejects the candidate — some
// use-case's flows no longer route or fit their slot tables — repair
// relocates one moved core to the emptiest NI and retries once. On success
// the move is left pending on the session (caller decides Keep/Undo);
// returns ok=false when no feasible neighbour was found.
func (a *annealer) propose(sess *core.Session, numNIs int, attached []int) (core.Stats, bool) {
	cs, cn := a.csBuf, a.cnBuf
	sess.PlacementInto(cs, cn)
	niLoad := niOccupancyInto(a.niLoad, cn)

	var moved [2]int
	// forbidden marks the repaired core's original NI on relocate moves:
	// repairing back to it would reproduce the current placement and waste a
	// configuration pass on a no-op. After a swap the other core stays
	// moved, so any repair target yields a genuine neighbour.
	forbidden := -1
	if a.rng.Float64() < 0.7 {
		// Swap two cores on different NIs.
		x := attached[a.rng.Intn(len(attached))]
		y := attached[a.rng.Intn(len(attached))]
		if x == y || cn[x] == cn[y] {
			return core.Stats{}, false
		}
		cs[x], cs[y] = cs[y], cs[x]
		cn[x], cn[y] = cn[y], cn[x]
		moved = [2]int{x, y}
	} else {
		// Relocate one core to an NI with a free seat.
		x := attached[a.rng.Intn(len(attached))]
		free := freeNIsInto(a.freeBuf[:0], niLoad, cn[x], a.p.CoresPerNI)
		a.freeBuf = free
		if len(free) == 0 {
			return core.Stats{}, false
		}
		ni := free[a.rng.Intn(len(free))]
		niLoad[cn[x]]--
		niLoad[ni]++
		forbidden = cn[x]
		cn[x] = ni
		cs[x] = ni / a.p.NIsPerSwitch
		moved = [2]int{x, x}
	}
	stats, err := sess.TryMove(cs, cn, moved[0], moved[1])
	if err == nil {
		return stats, true
	}
	// Repair: move one of the disturbed cores to the least-loaded NI and give
	// the configuration one more chance.
	x := moved[a.rng.Intn(2)]
	ni := emptiestNI(niLoad, cn[x], forbidden, a.p.CoresPerNI)
	if ni < 0 {
		return core.Stats{}, false
	}
	niLoad[cn[x]]--
	niLoad[ni]++
	cn[x] = ni
	cs[x] = ni / a.p.NIsPerSwitch
	stats, err = sess.TryMove(cs, cn, moved[0], moved[1])
	if err != nil {
		return core.Stats{}, false
	}
	return stats, true
}

// consider updates the incumbent when the candidate scores strictly better,
// emitting one StageImproved progress event per strict improvement.
func (a *annealer) consider(r *core.Result) {
	if c := a.opts.Weights.Of(r); c < a.bestCost-1e-12 {
		a.best, a.bestCost = r, c
		a.opts.emitCounts("anneal", StageImproved, r, a.counts)
	}
}

// attachedCores lists the cores with an NI seat.
func attachedCores(coreSwitch []int) []int {
	var out []int
	for c, s := range coreSwitch {
		if s >= 0 {
			out = append(out, c)
		}
	}
	return out
}

// niOccupancyInto counts the cores seated on each NI into load, which fixes
// the NI count.
func niOccupancyInto(load []int, coreNI []int) []int {
	for i := range load {
		load[i] = 0
	}
	for _, ni := range coreNI {
		if ni >= 0 {
			load[ni]++
		}
	}
	return load
}

// freeNIsInto appends the NIs other than `exclude` with a free core seat to
// out.
func freeNIsInto(out []int, load []int, exclude, coresPerNI int) []int {
	for ni, n := range load {
		if ni != exclude && n < coresPerNI {
			out = append(out, ni)
		}
	}
	return out
}

// emptiestNI returns the least-loaded NI with a free seat other than the
// excluded pair, or -1.
func emptiestNI(load []int, exclude, exclude2, coresPerNI int) int {
	best, bestLoad := -1, 0
	for ni, n := range load {
		if ni == exclude || ni == exclude2 || n >= coresPerNI {
			continue
		}
		if best < 0 || n < bestLoad {
			best, bestLoad = ni, n
		}
	}
	return best
}
