// Package population implements the population-based metaheuristic engines
// of the search registry: genetic algorithm (ga), particle swarm (pso) and
// artificial bee colony (abc). All three share one problem encoding — a
// placement of the attached cores over the NI seats of a candidate fabric —
// and one evaluation path: every candidate is scored through a zero-alloc
// core.Session move (incremental teardown and re-reservation of the flows
// whose endpoints changed seats), so a population step costs a handful of
// delta evaluations instead of full re-configurations.
//
// The engines share the annealer's outer structure: the greedy constructive
// result is the feasibility anchor and first incumbent, the population
// evolves on the greedy fabric, then the engine probes every smaller fabric
// that could still seat the attached cores (seeded random restarts) and
// evolves there too. By construction no engine returns a result worse than
// greedy's under the configured cost weights. All randomness flows from the
// single seeded PRNG and candidates are generated and scored serially, so a
// fixed Options.Seed reproduces the run bit for bit.
//
// Every strict incumbent improvement emits one StageImproved progress
// event — the same contract the annealer follows.
package population

import (
	"context"
	"math/rand"
	"slices"
	"sort"

	"nocmap/internal/core"
	"nocmap/internal/search"
	"nocmap/internal/topology"
	"nocmap/internal/usecase"
)

// Engine defaults: a compact population keeps D1-class designs interactive
// while still racing well against the annealer's 120 serial moves.
const (
	defaultPopulation  = 16
	defaultGenerations = 24
)

func init() {
	search.Register("ga", func() search.Engine { return GA{} })
	search.Register("pso", func() search.Engine { return PSO{} })
	search.Register("abc", func() search.Engine { return ABC{} })
}

// evolver is one metaheuristic's per-fabric evolution step: it receives a
// population of individuals positioned at feasible configurations on one
// evaluator and improves them in place, reporting incumbents through
// d.consider.
type evolver interface {
	evolve(ctx context.Context, d *driver, ev *core.Evaluator, switches int, pop []*indiv, attached []int)
}

// indiv is one population member: a session holding its committed
// configuration and the member's score under the cost weights.
type indiv struct {
	sess *core.Session
	cost float64
	// trial counts consecutive failed improvement attempts (abc's
	// abandonment rule; unused by ga and pso).
	trial int
}

// driver carries the state shared by all population engines: the incumbent,
// the seeded PRNG, the evaluator cache and the proposal scratch buffers.
type driver struct {
	prep     *usecase.Prepared
	numCores int
	p        core.Params
	opts     search.Options
	name     string
	rng      *rand.Rand
	evals    *search.EvalCache

	pop, gens int

	best     *core.Result
	bestCost float64
	counts   search.Counts

	// Proposal scratch, reused across the run: candidate placements, parent
	// placements, NI occupancy, the free-seat list and the moved-core list.
	csBuf, cnBuf []int
	paBuf, pbBuf []int
	niLoad       []int
	freeBuf      []int
	movedBuf     []int
}

// run is the shared engine body: greedy base, evolution on the base fabric,
// then evolution on every feasible smaller fabric.
func run(ctx context.Context, e evolver, name string, prep *usecase.Prepared,
	numCores int, p core.Params, opts search.Options) (*core.Result, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// The greedy base runs outside the budget, exactly like the annealer's:
	// a tight budget degrades to the greedy result, never to an error.
	base, err := core.MapContext(ctx, prep, numCores, p)
	if err != nil {
		return nil, err
	}
	opts.Emit(name, search.StageMapped, base, search.Counts{})
	if opts.Budget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opts.Budget)
		defer cancel()
	}
	d := &driver{
		prep: prep, numCores: numCores, p: p, opts: opts, name: name,
		rng:   rand.New(rand.NewSource(opts.Seed)),
		evals: search.NewEvalCache(prep, numCores, p),
		pop:   opts.Population, gens: opts.Generations,
		best: base, bestCost: opts.Weights.Of(base),
	}
	if d.pop == 0 {
		d.pop = defaultPopulation
	}
	if d.gens == 0 {
		d.gens = defaultGenerations
	}
	d.csBuf = make([]int, numCores)
	d.cnBuf = make([]int, numCores)
	d.paBuf = make([]int, numCores)
	d.pbBuf = make([]int, numCores)
	d.movedBuf = make([]int, 0, numCores)

	attached := attachedCores(base.Mapping.CoreSwitch)
	d.evolveOn(ctx, e, base, attached)
	for _, dim := range d.shrinkDims(base, len(attached)) {
		if ctx.Err() != nil {
			break
		}
		if dim.Switches() >= d.best.Mapping.SwitchCount() {
			continue
		}
		start := d.feasibleStart(ctx, dim, attached)
		if start == nil {
			continue
		}
		d.consider(start)
		d.evolveOn(ctx, e, start, attached)
	}
	opts.Emit(name, search.StageDone, d.best, d.counts)
	return d.best, nil
}

// evolveOn initializes a population around start's fabric and runs the
// metaheuristic's evolution step on it. Member 0 adopts start's exact
// configuration; the rest are diversified by accepted random moves.
func (d *driver) evolveOn(ctx context.Context, e evolver, start *core.Result, attached []int) {
	if len(attached) < 2 || d.gens == 0 || d.pop == 0 {
		return
	}
	ev, err := d.evals.For(start.Mapping.Topology)
	if err != nil {
		return
	}
	sess, err := ev.SessionFrom(start)
	if err != nil {
		return
	}
	switches := ev.Topology().NumSwitches()
	numNIs := switches * d.p.NIsPerSwitch
	d.ensureScratch(numNIs)
	pop := make([]*indiv, 0, d.pop)
	pop = append(pop, &indiv{sess: sess, cost: d.opts.Weights.OfParts(switches, sess.Stats())})
	for i := 1; i < d.pop; i++ {
		if ctx.Err() != nil {
			return
		}
		c, err := sess.Clone()
		if err != nil {
			return
		}
		m := &indiv{sess: c}
		// Diversify with one to three accepted random moves; a member that
		// accepts none simply starts at the base configuration.
		for k := 1 + d.rng.Intn(3); k > 0; k-- {
			d.randomMove(m.sess, attached)
		}
		m.cost = d.opts.Weights.OfParts(switches, m.sess.Stats())
		pop = append(pop, m)
	}
	e.evolve(ctx, d, ev, switches, pop, attached)
}

// ensureScratch sizes the per-fabric proposal buffers.
func (d *driver) ensureScratch(numNIs int) {
	if cap(d.niLoad) < numNIs {
		d.niLoad = make([]int, numNIs)
		d.freeBuf = make([]int, 0, numNIs)
	}
	d.niLoad = d.niLoad[:numNIs]
}

// consider updates the incumbent when the candidate scores strictly better,
// emitting one StageImproved event.
func (d *driver) consider(r *core.Result) {
	if c := d.opts.Weights.Of(r); c < d.bestCost-1e-12 {
		d.best, d.bestCost = r, c
		d.opts.Emit(d.name, search.StageImproved, r, d.counts)
	}
}

// considerMember folds one improved member into the incumbent bookkeeping.
func (d *driver) considerMember(m *indiv) {
	if m.cost < d.bestCost-1e-12 {
		d.consider(m.sess.Result())
	}
}

// proposeMove generates one neighbouring placement of the session (swap of
// two attached cores' seats, or relocation of one core to a free seat — the
// annealer's neighbourhood) and evaluates it incrementally, repairing a
// rejected candidate once by moving a disturbed core to the emptiest NI.
// On success the move is left pending on the session (caller decides
// Keep/Undo) and the candidate's stats are returned; ok=false means no
// feasible neighbour was found and the session is unchanged.
func (d *driver) proposeMove(sess *core.Session, attached []int) (core.Stats, bool) {
	cs, cn := d.csBuf, d.cnBuf
	sess.PlacementInto(cs, cn)
	niLoad := niOccupancyInto(d.niLoad, cn)
	var moved [2]int
	forbidden := -1
	if d.rng.Float64() < 0.7 {
		x := attached[d.rng.Intn(len(attached))]
		y := attached[d.rng.Intn(len(attached))]
		if x == y || cn[x] == cn[y] {
			return core.Stats{}, false
		}
		cs[x], cs[y] = cs[y], cs[x]
		cn[x], cn[y] = cn[y], cn[x]
		moved = [2]int{x, y}
	} else {
		x := attached[d.rng.Intn(len(attached))]
		free := freeNIsInto(d.freeBuf[:0], niLoad, cn[x], d.p.CoresPerNI)
		d.freeBuf = free
		if len(free) == 0 {
			return core.Stats{}, false
		}
		ni := free[d.rng.Intn(len(free))]
		niLoad[cn[x]]--
		niLoad[ni]++
		forbidden = cn[x]
		cn[x] = ni
		cs[x] = ni / d.p.NIsPerSwitch
		moved = [2]int{x, x}
	}
	d.counts.Moves++
	if stats, err := sess.TryMove(cs, cn, moved[0], moved[1]); err == nil {
		return stats, true
	}
	x := moved[d.rng.Intn(2)]
	ni := emptiestNI(niLoad, cn[x], forbidden, d.p.CoresPerNI)
	if ni < 0 {
		return core.Stats{}, false
	}
	cn[x] = ni
	cs[x] = ni / d.p.NIsPerSwitch
	if stats, err := sess.TryMove(cs, cn, moved[0], moved[1]); err == nil {
		return stats, true
	}
	return core.Stats{}, false
}

// randomMove is proposeMove with unconditional acceptance — the
// diversification primitive. Returns whether the session changed.
func (d *driver) randomMove(sess *core.Session, attached []int) bool {
	if _, ok := d.proposeMove(sess, attached); ok {
		sess.Keep()
		d.counts.Accepted++
		return true
	}
	return false
}

// adopt moves a member's session to the target placement through one
// incremental TryMove over the differing cores. On success the move is
// committed and the member's cost updated; on failure the member is
// unchanged. Returns whether the member moved.
func (d *driver) adopt(m *indiv, switches int, targetCS, targetCN []int) bool {
	m.sess.PlacementInto(d.paBuf, d.pbBuf)
	moved := d.movedBuf[:0]
	for c := 0; c < d.numCores; c++ {
		if d.paBuf[c] != targetCS[c] || d.pbBuf[c] != targetCN[c] {
			moved = append(moved, c)
		}
	}
	d.movedBuf = moved
	if len(moved) == 0 {
		return false
	}
	d.counts.Moves++
	stats, err := m.sess.TryMove(targetCS, targetCN, moved...)
	if err != nil {
		return false
	}
	m.sess.Keep()
	d.counts.Accepted++
	m.cost = d.opts.Weights.OfParts(switches, stats)
	return true
}

// shrinkDims lists topologies smaller than the base solution with enough
// core seats, in descending switch count (mirrors the annealer's probe
// order). A custom fabric is a single fixed instance with nothing to shrink
// to.
func (d *driver) shrinkDims(base *core.Result, attached int) []topology.Dim {
	if !d.p.Topology.Grows() {
		return nil
	}
	baseSwitches := base.Mapping.SwitchCount()
	var dims []topology.Dim
	for _, dim := range topology.GrowthSequence(d.p.MaxMeshDim) {
		if dim.Switches() >= baseSwitches {
			continue
		}
		if dim.Switches()*d.p.CoresPerSwitch() < attached {
			continue
		}
		dims = append(dims, dim)
	}
	slices.Reverse(dims)
	return dims
}

// feasibleStart tries Options.Restarts seeded random placements on the
// given size and returns the first that configures feasibly, or nil.
func (d *driver) feasibleStart(ctx context.Context, dim topology.Dim, attached []int) *core.Result {
	top, err := d.p.Topology.ForDim(dim, d.p.CoresPerSwitch())
	if err != nil {
		return nil
	}
	ev, err := d.evals.For(top)
	if err != nil {
		return nil
	}
	top = ev.Topology()
	numNIs := top.NumSwitches() * d.p.NIsPerSwitch
	seats := make([]int, 0, numNIs*d.p.CoresPerNI)
	for ni := 0; ni < numNIs; ni++ {
		for k := 0; k < d.p.CoresPerNI; k++ {
			seats = append(seats, ni)
		}
	}
	if len(attached) > len(seats) {
		return nil
	}
	for r := 0; r < d.opts.Restarts; r++ {
		if ctx.Err() != nil {
			return nil
		}
		d.counts.Restarts++
		d.rng.Shuffle(len(seats), func(i, j int) { seats[i], seats[j] = seats[j], seats[i] })
		cs := make([]int, d.numCores)
		cn := make([]int, d.numCores)
		for i := range cs {
			cs[i], cn[i] = -1, -1
		}
		for i, c := range attached {
			cn[c] = seats[i]
			cs[c] = seats[i] / d.p.NIsPerSwitch
		}
		if res, err := ev.Evaluate(cs, cn); err == nil {
			return res
		}
	}
	return nil
}

// rankedIndices returns population indices sorted by ascending cost with
// index as the deterministic tie-break.
func rankedIndices(pop []*indiv) []int {
	order := make([]int, len(pop))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		ca, cb := pop[order[a]].cost, pop[order[b]].cost
		if ca != cb {
			return ca < cb
		}
		return order[a] < order[b]
	})
	return order
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

// niOccupancyInto counts the cores seated on each NI into load.
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

// freeNIsInto appends the NIs other than exclude with a free core seat.
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
