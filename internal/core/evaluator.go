package core

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"nocmap/internal/route"
	"nocmap/internal/tdma"
	"nocmap/internal/topology"
	"nocmap/internal/traffic"
	"nocmap/internal/usecase"
)

// Evaluator is the reusable evaluation engine for one (prepared design,
// topology, params) triple. The one-shot EvaluateFixed re-validates the
// inputs and rebuilds every table on each call; a search engine scoring
// thousands of candidate placements pays that fixed cost per candidate. The
// Evaluator pays it once, in two layers:
//
//   - the design tables (inputs validated; the bandwidth-sorted flow work
//     list; per-pair routing plans with group order, reservation size,
//     bandwidth and latency; NI demand projections) depend only on the
//     use-cases and params. They are built once per design and shared by
//     every evaluator derived from them: Map's growth loop derives one per
//     attempted mesh size, and a search's EvalCache one per fabric it
//     probes (through ForTopology);
//   - the per-topology part caches candidate mesh paths per switch pair
//     (route.Table) and pools mappers: each carries a reservation ledger
//     (TDMA states, live records, freelist and undo log), the flow list
//     and the candidate buffers, and is rolled back between evaluations
//     instead of reallocated.
//
// An Evaluator is immutable after construction and safe for concurrent use:
// every Evaluate call draws its mutable state from an internal pool, so the
// portfolio's workers share one Evaluator (and its precomputation) per
// topology. Delta evaluation of single moves is layered on top via
// Session, which runs on the same ledger.
type Evaluator struct {
	*designTables

	top *topology.Topology

	meshLinks  int
	totalLinks int

	// paths caches candidate mesh paths per switch pair.
	paths *route.Table

	pool sync.Pool // *mapper
}

// designTables is the topology-independent precomputation of one (prepared
// design, params) pair: Algorithm 2's flow ordering and per-pair reservation
// plans. It is immutable once built and shared by every Evaluator derived
// from it.
type designTables struct {
	prep     *usecase.Prepared
	numCores int
	p        Params

	// flowsTpl is the bandwidth-sorted global flow list (Algorithm 2 step
	// 2); evaluations copy it instead of re-sorting.
	flowsTpl []flowInst
	// pairList holds the distinct pairs in first-occurrence (descending
	// bandwidth) order — the order the fully-fixed configuration phase
	// routes them in.
	pairList []traffic.PairKey
	// remOutTpl/remInTpl are the initial per-group, per-core not-yet-routed
	// slot demands; partial-placement evaluations copy and consume them.
	remOutTpl, remInTpl [][]int
	// active lists the cores that appear in at least one flow, ascending.
	active []int
	// groupPairs lists, per group, its pairs with their bandwidth-driven
	// slot demand (the plans regrouped for cheap deterministic iteration in
	// the session's capacity prechecks).
	groupPairs [][]pairDemand
	// ucPairs lists, per use-case, its distinct pairs with the flow
	// bandwidth in declared order — the walk the ledger's stats and
	// configs take.
	ucPairs [][]ucPairStat

	// Dense pair indexing: pairIdx numbers the distinct pairs in pairList
	// order (flowInst.pair carries the same index), planOf holds each
	// pair's routing plan, pairsOf lists per core the (ascending) indices of
	// the pairs touching it, and ucPairIdx mirrors ucPairs as indices.
	// Together they let the mapper and a move evaluation find and walk
	// their pairs with array indexing.
	pairIdx   map[traffic.PairKey]int32
	planOf    []*pairPlan
	pairsOf   [][]int32
	ucPairIdx [][]int32
}

// pairPlan is the placement-independent routing plan of one directed pair:
// the smooth-switching groups that communicate over it in reservation order
// (driving group first, then descending heaviest-flow bandwidth), each with
// its reservation bandwidth, tightest latency bound and the slot demand of
// its heaviest same-pair flow.
type pairPlan struct {
	groups   []int
	bw       []float64
	lat      []float64
	slots    []int
	allInsts []int // indices into the flow list, every instance of the pair
}

type ucPairStat struct {
	key traffic.PairKey
	bw  float64
}

// pairDemand is one pair of one group's routing worklist: its slot demand
// plus the group's reservation bandwidth and latency bound (copied from the
// pair's plan for cheap per-group iteration), and the pair's dense index.
type pairDemand struct {
	key   traffic.PairKey
	idx   int32
	slots int
	bw    float64
	lat   float64
}

// NewEvaluator validates the inputs once, builds the design tables and
// returns the evaluator for one topology. The topology is used as given —
// mesh, torus or custom — exactly like EvaluateFixed. Use ForTopology on
// the result to evaluate the same design on other fabrics.
func NewEvaluator(prep *usecase.Prepared, numCores int, top *topology.Topology, p Params) (*Evaluator, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := validateInput(prep, numCores); err != nil {
		return nil, err
	}
	if top == nil {
		return nil, errNoTopology
	}
	return newDesignTables(prep, numCores, p).evaluator(top), nil
}

var errNoTopology = fmt.Errorf("core: evaluator needs a topology")

// ForTopology returns an evaluator for the same design and params on
// another fabric. It shares ev's design tables, so it costs only the
// per-topology part: a constant number of allocations, independent of the
// design's size.
func (ev *Evaluator) ForTopology(top *topology.Topology) (*Evaluator, error) {
	if top == nil {
		return nil, errNoTopology
	}
	return ev.designTables.evaluator(top), nil
}

// evaluator derives the per-topology evaluator over the tables.
func (t *designTables) evaluator(top *topology.Topology) *Evaluator {
	meshLinks := top.NumLinks()
	return &Evaluator{
		designTables: t,
		top:          top,
		meshLinks:    meshLinks,
		totalLinks:   meshLinks + 2*top.NumSwitches()*t.p.NIsPerSwitch,
		paths:        route.NewTable(top, t.p.Cost),
	}
}

// Topology returns the fabric the evaluator scores placements on.
func (ev *Evaluator) Topology() *topology.Topology { return ev.top }

// compareFlows orders the global flow list: descending bandwidth, then
// source, destination and use-case. Use-case validation forbids duplicate
// pairs within a use-case, so the order is total.
func compareFlows(a, b flowInst) int {
	if a.bw != b.bw {
		if a.bw > b.bw {
			return -1
		}
		return 1
	}
	if c := cmp.Compare(a.key.Src, b.key.Src); c != 0 {
		return c
	}
	if c := cmp.Compare(a.key.Dst, b.key.Dst); c != 0 {
		return c
	}
	return cmp.Compare(a.uc, b.uc)
}

// newDesignTables assembles the sorted flow list, pair index, routing plans
// and demand projections without re-validating (callers validate once up
// front). Every per-pair, per-group and per-core table is carved from one
// backing array sized by a counting pass.
func newDesignTables(prep *usecase.Prepared, numCores int, p Params) *designTables {
	t := &designTables{prep: prep, numCores: numCores, p: p}
	numFlows := 0
	for _, u := range prep.UseCases {
		numFlows += len(u.Flows)
	}
	t.flowsTpl = make([]flowInst, 0, numFlows)
	for uc, u := range prep.UseCases {
		for _, f := range u.Flows {
			t.flowsTpl = append(t.flowsTpl, flowInst{uc: uc, bw: f.BandwidthMBs, lat: f.MaxLatencyNS, key: f.Key()})
		}
	}
	slices.SortStableFunc(t.flowsTpl, compareFlows)

	// Number the distinct pairs in first-occurrence order and tag every
	// flow with its pair.
	t.pairIdx = make(map[traffic.PairKey]int32)
	for i := range t.flowsTpl {
		f := &t.flowsTpl[i]
		idx, ok := t.pairIdx[f.key]
		if !ok {
			idx = int32(len(t.pairList))
			t.pairIdx[f.key] = idx
			t.pairList = append(t.pairList, f.key)
		}
		f.pair = idx
	}
	numPairs := len(t.pairList)

	// Every pair's instances, ascending, by a counting sort over the flows.
	instStart := make([]int, numPairs+1)
	for _, f := range t.flowsTpl {
		instStart[f.pair+1]++
	}
	for i := 0; i < numPairs; i++ {
		instStart[i+1] += instStart[i]
	}
	insts := make([]int, numFlows)
	next := slices.Clone(instStart[:numPairs])
	for i, f := range t.flowsTpl {
		insts[next[f.pair]] = i
		next[f.pair]++
	}

	// Routing plans. The driving group is the group of the pair's heaviest
	// instance (the flow chooseNext selects — same-pair flows share a
	// preference tier, so the sorted list's first instance always drives);
	// the remaining groups follow in descending order of their heaviest
	// same-pair flow, matching Algorithm 2 step 6. The per-group maxima are
	// gathered in group-indexed scratch. A pair has at most as many groups
	// as instances, so the plans' parallel slices carve from backing arrays
	// of the flow count. The demand projection templates accumulate
	// alongside: each core's remaining demand in a group is the sum of its
	// pairs' reservation sizes.
	numGroups := len(prep.Groups)
	remBuf := make([]int, 2*numGroups*numCores)
	t.remOutTpl = make([][]int, numGroups)
	t.remInTpl = make([][]int, numGroups)
	for g := 0; g < numGroups; g++ {
		t.remOutTpl[g] = remBuf[2*g*numCores : (2*g+1)*numCores : (2*g+1)*numCores]
		t.remInTpl[g] = remBuf[(2*g+1)*numCores : (2*g+2)*numCores : (2*g+2)*numCores]
	}
	maxBW := make([]float64, numGroups)
	minLat := make([]float64, numGroups)
	maxSlots := make([]int, numGroups)
	inPlan := make([]bool, numGroups)
	groupLen := make([]int, numGroups)
	groupsBuf := make([]int, numFlows)
	bwBuf := make([]float64, numFlows)
	latBuf := make([]float64, numFlows)
	slotsBuf := make([]int, numFlows)
	plans := make([]pairPlan, numPairs)
	t.planOf = make([]*pairPlan, numPairs)
	slotBW := p.SlotBandwidthMBs()
	used := 0
	for i := range plans {
		plan := &plans[i]
		plan.allInsts = insts[instStart[i]:instStart[i+1]:instStart[i+1]]
		groups := groupsBuf[used:used]
		for _, fi := range plan.allInsts {
			f := &t.flowsTpl[fi]
			g := prep.GroupOf[f.uc]
			if !inPlan[g] {
				inPlan[g] = true
				maxBW[g], minLat[g], maxSlots[g] = 0, -1, 0
				groups = append(groups, g)
			}
			if f.bw > maxBW[g] {
				maxBW[g] = f.bw
			}
			if f.lat > 0 && (minLat[g] < 0 || f.lat < minLat[g]) {
				minLat[g] = f.lat
			}
			if n := tdma.SlotsNeeded(f.bw, slotBW); n > maxSlots[g] {
				maxSlots[g] = n
			}
		}
		slices.SortFunc(groups[1:], func(a, b int) int {
			if maxBW[a] != maxBW[b] {
				if maxBW[a] > maxBW[b] {
					return -1
				}
				return 1
			}
			return a - b
		})
		n := len(groups)
		plan.groups = groups[:n:n]
		plan.bw = bwBuf[used : used+n : used+n]
		plan.lat = latBuf[used : used+n : used+n]
		plan.slots = slotsBuf[used : used+n : used+n]
		key := t.pairList[i]
		for j, g := range groups {
			plan.bw[j], plan.lat[j], plan.slots[j] = maxBW[g], minLat[g], maxSlots[g]
			t.remOutTpl[g][key.Src] += maxSlots[g]
			t.remInTpl[g][key.Dst] += maxSlots[g]
			inPlan[g] = false
			groupLen[g]++
		}
		used += n
		t.planOf[i] = plan
	}

	// Per-core incidence lists the session's move evaluation walks instead
	// of scanning every pair, and the cores that communicate at all.
	touching := make([]int, numCores+1)
	for _, key := range t.pairList {
		touching[key.Src+1]++
		if key.Dst != key.Src {
			touching[key.Dst+1]++
		}
	}
	t.active = make([]int, 0, numCores)
	for c := 0; c < numCores; c++ {
		if touching[c+1] > 0 {
			t.active = append(t.active, c)
		}
		touching[c+1] += touching[c]
	}
	pairsBuf := make([]int32, touching[numCores])
	t.pairsOf = make([][]int32, numCores)
	for c := range t.pairsOf {
		t.pairsOf[c] = pairsBuf[touching[c]:touching[c]:touching[c+1]]
	}
	for i, key := range t.pairList {
		t.pairsOf[key.Src] = append(t.pairsOf[key.Src], int32(i))
		if key.Dst != key.Src {
			t.pairsOf[key.Dst] = append(t.pairsOf[key.Dst], int32(i))
		}
	}

	// Per-group routing worklists in global (bandwidth-sorted) pair order.
	// With a fixed placement the groups never interact — each owns its slot
	// tables and candidate costs read only its own state — so evaluating a
	// group against this list alone reproduces exactly what a full pass
	// would grant it. The session's per-group rebuild fallback rests on
	// this decomposition.
	demandBuf := make([]pairDemand, used)
	t.groupPairs = make([][]pairDemand, numGroups)
	off := 0
	for g, n := range groupLen {
		t.groupPairs[g] = demandBuf[off : off : off+n]
		off += n
	}
	for i, plan := range t.planOf {
		for j, g := range plan.groups {
			t.groupPairs[g] = append(t.groupPairs[g], pairDemand{
				key: t.pairList[i], idx: int32(i), slots: plan.slots[j], bw: plan.bw[j], lat: plan.lat[j],
			})
		}
	}

	// Per-use-case stat iteration: distinct pairs with the flow bandwidth
	// (use-case validation forbids duplicate pairs, so flows ≡ pairs).
	statBuf := make([]ucPairStat, 0, numFlows)
	idxBuf := make([]int32, 0, numFlows)
	t.ucPairs = make([][]ucPairStat, len(prep.UseCases))
	t.ucPairIdx = make([][]int32, len(prep.UseCases))
	for uc, u := range prep.UseCases {
		from := len(statBuf)
		for _, f := range u.Flows {
			statBuf = append(statBuf, ucPairStat{key: f.Key(), bw: f.BandwidthMBs})
			idxBuf = append(idxBuf, t.pairIdx[f.Key()])
		}
		to := len(statBuf)
		t.ucPairs[uc] = statBuf[from:to:to]
		t.ucPairIdx[uc] = idxBuf[from:to:to]
	}
	return t
}

// ValidatePlacement checks a fixed placement against the evaluator's
// topology and NI shape without running the configuration phase: slice
// lengths, switch/NI ranges, NI-on-switch consistency and per-NI core
// capacity. Cores with a negative switch are unattached and skipped. seats
// is scratch for the per-NI core count: it is used when it has an entry
// per NI of the fabric and allocated otherwise (pass nil), so a caller
// validating many placements stays allocation-free with one buffer.
func (ev *Evaluator) ValidatePlacement(coreSwitch, coreNI, seats []int) error {
	if len(coreSwitch) != ev.numCores || len(coreNI) != ev.numCores {
		return fmt.Errorf("core: fixed placement has wrong length (switch %d, NI %d entries, design has %d cores)",
			len(coreSwitch), len(coreNI), ev.numCores)
	}
	numNIs := ev.top.NumSwitches() * ev.p.NIsPerSwitch
	if len(seats) < numNIs {
		seats = make([]int, numNIs)
	}
	seats = seats[:numNIs]
	clear(seats)
	for c := 0; c < ev.numCores; c++ {
		s, ni := coreSwitch[c], coreNI[c]
		if s < 0 {
			continue
		}
		if s >= ev.top.NumSwitches() || ni < 0 || ni >= numNIs || ni/ev.p.NIsPerSwitch != s {
			return fmt.Errorf("core: fixed placement of core %d (switch %d, NI %d) invalid", c, s, ni)
		}
		seats[ni]++
		if seats[ni] > ev.p.CoresPerNI {
			return fmt.Errorf("core: fixed placement overfills NI %d (%d cores, capacity %d)", ni, seats[ni], ev.p.CoresPerNI)
		}
	}
	return nil
}

// newLedger returns an empty ledger shaped for the evaluator's design and
// fabric.
func (ev *Evaluator) newLedger() *ledger {
	return newLedger(len(ev.prep.Groups), len(ev.pairList), ev.totalLinks, ev.p.SlotTableSize)
}

// mapperFor draws a mapper from the pool (or builds one) and readies it for
// one pass from the placement (coreSwitch, coreNI), nil for the
// constructive pass. Immutable tables are shared with the evaluator; the
// flow list and demand projections are reset from the templates.
func (ev *Evaluator) mapperFor(coreSwitch, coreNI []int) *mapper {
	m, ok := ev.pool.Get().(*mapper)
	if !ok {
		m = &mapper{
			ev:          ev,
			led:         ev.newLedger(),
			flows:       make([]flowInst, len(ev.flowsTpl)),
			switchCores: make([]int, ev.top.NumSwitches()),
			niCores:     make([]int, ev.top.NumSwitches()*ev.p.NIsPerSwitch),
			res:         reserveScratch{route: route.NewScratch()},
		}
		numGroups, n := len(ev.prep.Groups), ev.numCores
		remBuf := make([]int, 2*numGroups*n)
		m.remOut, m.remIn = make([][]int, numGroups), make([][]int, numGroups)
		for g := range m.remOut {
			m.remOut[g] = remBuf[2*g*n : (2*g+1)*n : (2*g+1)*n]
			m.remIn[g] = remBuf[(2*g+1)*n : (2*g+2)*n : (2*g+2)*n]
		}
	}
	copy(m.flows, ev.flowsTpl)
	m.scanFrom = 0
	for g := range m.remOut {
		copy(m.remOut[g], ev.remOutTpl[g])
		copy(m.remIn[g], ev.remInTpl[g])
	}
	m.place(coreSwitch, coreNI)
	return m
}

// putMapper rolls back every reservation of the mapper's pass — restoring
// the states to all-free without an O(links*slots) wipe — and returns it to
// the pool.
func (ev *Evaluator) putMapper(m *mapper) {
	m.led.rollback(0)
	m.led.nextOwner = 0
	ev.pool.Put(m)
}

// Evaluate runs the configuration phase on a fixed core placement using a
// pooled mapper and returns the complete Result. The output is
// bit-identical to EvaluateFixed on the same inputs; only the fixed
// per-call costs are gone.
func (ev *Evaluator) Evaluate(coreSwitch, coreNI []int) (*Result, error) {
	if err := ev.ValidatePlacement(coreSwitch, coreNI, nil); err != nil {
		return nil, err
	}
	m, err := ev.attempt(coreSwitch, coreNI)
	if err != nil {
		return nil, err
	}
	res := m.result([]Attempt{{Dim: topology.Dim{Rows: ev.top.Rows, Cols: ev.top.Cols}}})
	ev.putMapper(m)
	return res, nil
}

// attempt runs one configuration pass on a validated fixed placement, or
// the constructive pass when coreSwitch is nil. A failed pass returns its
// mapper to the pool; a successful one hands it over with the granted
// reservations in its ledger: Evaluate returns it to the pool once the
// Result is built, the growth loop drops it, and NewSession adopts its
// ledger. The frequent outcome of a saturated fabric (infeasible) thus
// costs no state allocation at all.
func (ev *Evaluator) attempt(coreSwitch, coreNI []int) (*mapper, error) {
	m := ev.mapperFor(coreSwitch, coreNI)
	if err := m.run(); err != nil {
		ev.putMapper(m)
		return nil, err
	}
	return m, nil
}

// Infeasibility sentinels of reserveSlots. The move loop of a search engine
// probes thousands of placements whose rejections are ordinary control
// flow, so reserveSlots reports them without formatting; the mapper turns
// them into descriptive errors (mapper.reserveError).
var (
	errOverCapacity = fmt.Errorf("core: flow bandwidth exceeds link capacity")
	errNoPath       = fmt.Errorf("core: no bandwidth-feasible path")
	errNoAligned    = fmt.Errorf("core: no aligned slots on any candidate path")
)

// reserveScratch is the working state of reserveSlots on one goroutine: the
// route-query scratch, the path and start probe buffers, and how many
// candidate paths the last call probed.
type reserveScratch struct {
	route  *route.Scratch
	full   []int
	starts []int
	paths  int
}

// reserveSlots selects a path and aligned slots for pair idx of group g
// under the placement (cs, cn) and grants them in the ledger: candidate
// paths cheapest-first (from the per-pair cache), slot count escalating
// past the bandwidth requirement when the latency bound needs a smaller
// gap. It returns the granted record. Route queries and probes reuse the
// scratch, and infeasibility is reported through the shared sentinel
// errors.
func (ev *Evaluator) reserveSlots(sc *reserveScratch, l *ledger, g int, idx int32, cs, cn []int, bw, latencyNS float64) (*resRecord, error) {
	T := ev.p.SlotTableSize
	slots0 := tdma.SlotsNeeded(bw, ev.p.SlotBandwidthMBs())
	if slots0 > T {
		return nil, errOverCapacity
	}
	if cap(sc.starts) < T {
		// A reservation never holds more than T starts.
		sc.starts = make([]int, 0, T)
	}
	key := ev.pairList[idx]
	srcS, dstS := cs[key.Src], cs[key.Dst]
	st := l.states[g]
	latBudget := ev.p.LatencyBudgetSlots(latencyNS)
	var meshCands []route.Path
	if srcS != dstS {
		meshCands = ev.paths.Candidates(sc.route, st, topology.SwitchID(srcS), topology.SwitchID(dstS), slots0)
		if len(meshCands) == 0 {
			return nil, errNoPath
		}
		if ev.p.DisableUnifiedSlots {
			// Ablation A2: path selection ignores slot alignment — commit to
			// the single cheapest bandwidth-feasible path.
			meshCands = meshCands[:1]
		}
	} else {
		meshCands = sameSwitchCands
	}
	sc.paths = len(meshCands)
	for _, cand := range meshCands {
		full := sc.full[:0]
		full = append(full, ev.niEgress(cn[key.Src]))
		for _, link := range cand {
			full = append(full, int(link))
		}
		full = append(full, ev.niIngress(cn[key.Dst]))
		sc.full = full
		for n := slots0; n <= T; n++ {
			starts, ok := st.FindAligned(full, n, sc.starts)
			if !ok {
				break // more slots cannot become available
			}
			if latBudget >= 0 && tdma.WorstCaseLatencySlotsSorted(starts, len(full), T) > latBudget {
				continue // spread more slots to shrink the gap
			}
			r, err := l.grant(g, idx, key, full, starts, int32(len(cand)))
			if err != nil {
				return nil, fmt.Errorf("internal: reserve after FindAligned: %w", err)
			}
			return r, nil
		}
	}
	return nil, errNoAligned
}

// niEgress and niIngress number the NI links after the mesh links: NI n
// sends into its switch on meshLinks+2n and receives on meshLinks+2n+1.
func (ev *Evaluator) niEgress(globalNI int) int  { return ev.meshLinks + 2*globalNI }
func (ev *Evaluator) niIngress(globalNI int) int { return ev.meshLinks + 2*globalNI + 1 }

// pathHops counts the mesh links of a full path (NI links excluded).
func (ev *Evaluator) pathHops(path []int) int32 {
	hops := int32(0)
	for _, l := range path {
		if l < ev.meshLinks {
			hops++
		}
	}
	return hops
}

// sameSwitchCands is the single empty mesh path of a src==dst reservation.
var sameSwitchCands = []route.Path{nil}
