package core

import (
	"context"
	"fmt"
	"slices"

	"nocmap/internal/tdma"
	"nocmap/internal/topology"
	"nocmap/internal/traffic"
	"nocmap/internal/usecase"
)

// Map runs the full methodology on pre-processed use-cases: the outer loop
// walks the mesh growth sequence (Algorithm 2, steps 1 and 8) and the inner
// loop performs the unified mapping, path selection and slot reservation
// (steps 2-7). It returns the smallest feasible mapping.
func Map(prep *usecase.Prepared, numCores int, p Params) (*Result, error) {
	return MapContext(context.Background(), prep, numCores, p)
}

// MapContext is Map with cancellation: the context is consulted before every
// mesh size of the growth loop, so a server-side deadline or client
// disconnect stops a long infeasible search between attempts. One attempt
// (one mesh size) is the unit of cancellation — it is the smallest step
// after which the partial trace is still meaningful.
func MapContext(ctx context.Context, prep *usecase.Prepared, numCores int, p Params) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := validateInput(prep, numCores); err != nil {
		return nil, err
	}
	// The design tables depend only on the use-cases and params: build them
	// once and derive one evaluator per attempted fabric.
	tables := newDesignTables(prep, numCores, p)
	active := len(tables.active)
	// A custom fabric is a single fixed instance: no growth loop, one
	// attempt on the loaded topology.
	if !p.Topology.Grows() {
		top, err := p.Topology.ForDim(topology.Dim{}, p.CoresPerSwitch())
		if err != nil {
			return nil, err
		}
		dim := topology.Dim{Rows: top.Rows, Cols: top.Cols}
		if top.MaxCores() < active {
			err := fmt.Errorf("core: %s hosts %d cores, design needs %d", top, top.MaxCores(), active)
			return nil, &InfeasibleError{Fabric: top.String(), Attempts: []Attempt{{Dim: dim, Skipped: true}}, Last: err}
		}
		ev := tables.evaluator(top)
		m, err := ev.attempt(nil, nil)
		if err != nil {
			return nil, &InfeasibleError{Fabric: top.String(), Attempts: []Attempt{{Dim: dim, Err: err.Error()}}, Last: err}
		}
		res := m.result([]Attempt{{Dim: dim}})
		if p.Improve {
			res = improveResult(ev, res)
		}
		return res, nil
	}
	var attempts []Attempt
	var lastErr error
	for _, dim := range topology.GrowthSequence(p.MaxMeshDim) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if dim.Switches()*p.CoresPerSwitch() < active {
			attempts = append(attempts, Attempt{Dim: dim, Skipped: true})
			continue
		}
		top, err := p.Topology.ForDim(dim, p.CoresPerSwitch())
		if err != nil {
			return nil, err
		}
		ev := tables.evaluator(top)
		m, err := ev.attempt(nil, nil)
		if err != nil {
			attempts = append(attempts, Attempt{Dim: dim, Err: err.Error()})
			lastErr = err
			continue
		}
		attempts = append(attempts, Attempt{Dim: dim})
		res := m.result(attempts)
		if p.Improve {
			res = improveResult(ev, res)
		}
		return res, nil
	}
	return nil, &InfeasibleError{MaxDim: p.MaxMeshDim, Attempts: attempts, Last: lastErr}
}

// ConfigureFixed re-runs only the configuration phase (path selection and
// slot reservation) on an existing placement, typically at a different
// frequency. It is the primitive behind the DVS/DFS and parallel-mode
// frequency searches.
func ConfigureFixed(prep *usecase.Prepared, numCores int, top *topology.Topology,
	coreSwitch, coreNI []int, p Params) (*Mapping, error) {
	res, err := EvaluateFixed(prep, numCores, top, coreSwitch, coreNI, p)
	if err != nil {
		return nil, err
	}
	return res.Mapping, nil
}

// EvaluateFixed runs the configuration phase on a fixed core placement and
// returns the complete Result, including the summary statistics that score
// the mapping. It is the evaluation hook of the internal/search engines: a
// candidate placement is feasible exactly when EvaluateFixed succeeds, and
// its quality is read off the returned Stats. The given topology is used as
// is — mesh, torus or custom — so engines explore whatever fabric they
// built the placement on.
//
// EvaluateFixed is a compatibility wrapper that builds a throwaway
// Evaluator per call; callers scoring many placements on one topology
// should construct the Evaluator once and call Evaluate (or drive a
// Session) to amortize validation, precomputation and state allocation.
func EvaluateFixed(prep *usecase.Prepared, numCores int, top *topology.Topology,
	coreSwitch, coreNI []int, p Params) (*Result, error) {
	ev, err := NewEvaluator(prep, numCores, top, p)
	if err != nil {
		return nil, err
	}
	return ev.Evaluate(coreSwitch, coreNI)
}

// InfeasibleError reports that no fabric the search explored could satisfy
// every use-case: no mesh/torus up to the size cap (the outcome the paper
// reports for the WC method on the 40-use-case benchmarks), or the one
// fixed custom fabric.
type InfeasibleError struct {
	// MaxDim is the growth-loop cap; zero when a fixed custom fabric (named
	// by Fabric) was the only candidate.
	MaxDim   int
	Fabric   string
	Attempts []Attempt
	Last     error
}

func (e *InfeasibleError) Error() string {
	if e.Fabric != "" {
		return fmt.Sprintf("core: no feasible mapping on %s (last: %v)", e.Fabric, e.Last)
	}
	return fmt.Sprintf("core: no feasible mapping up to %dx%d mesh (last: %v)", e.MaxDim, e.MaxDim, e.Last)
}

func validateInput(prep *usecase.Prepared, numCores int) error {
	if prep == nil || len(prep.UseCases) == 0 {
		return fmt.Errorf("core: no use-cases")
	}
	for _, u := range prep.UseCases {
		if err := u.Validate(numCores); err != nil {
			return err
		}
	}
	if len(prep.GroupOf) != len(prep.UseCases) {
		return fmt.Errorf("core: prepared groups inconsistent with use-cases")
	}
	return nil
}

// flowInst is one flow occurrence in the global work list.
type flowInst struct {
	uc   int
	bw   float64
	lat  float64
	key  traffic.PairKey
	pair int32 // dense index of key (designTables.pairIdx)
	done bool
}

// mapper carries the working state of one constructive/configuration pass
// on one topology. The immutable tables are shared with the owning
// Evaluator (ev); the mutable state — ledger, flow list, demand
// projections, placement counters and candidate buffers — is reset per
// pass, and the evaluator pools whole mappers between passes.
type mapper struct {
	ev  *Evaluator
	led *ledger

	coreSwitch  []int
	coreNI      []int
	switchCores []int
	niCores     []int

	flows []flowInst

	// remOut/remIn hold, per group and core, the not-yet-reserved slot
	// demand (each pair sized by the group's heaviest same-pair flow, as in
	// the pair's plan) the core will still source or sink. Projected NI
	// occupancy (current reservations + remaining demand of the NI's cores)
	// steers placement: greedy per-flow decisions would otherwise co-locate
	// cores whose later flows overrun the NI.
	remOut [][]int
	remIn  [][]int

	res reserveScratch
	// placements, seeds and ranked back the per-trial candidate lists.
	placements []placement
	seeds      []switchCand
	ranked     []switchCand
	// scanFrom skips the done prefix of the flow list in chooseNext; flows
	// only ever transition to done, so the hint is monotone and safe.
	scanFrom int
}

type placement struct {
	placeSrc, placeDst bool
	srcSwitch          int
	dstSwitch          int
	src, dst           traffic.CoreID
}

// place initializes the placement arrays and seats the attached cores of
// a validated fixed placement (coreSwitch, coreNI); nil leaves every core
// unattached for the constructive pass.
func (m *mapper) place(coreSwitch, coreNI []int) {
	m.coreSwitch = make([]int, m.ev.numCores)
	m.coreNI = make([]int, m.ev.numCores)
	clear(m.switchCores)
	clear(m.niCores)
	for c := range m.coreSwitch {
		m.coreSwitch[c], m.coreNI[c] = -1, -1
		if coreSwitch == nil || coreSwitch[c] < 0 {
			continue
		}
		m.coreSwitch[c], m.coreNI[c] = coreSwitch[c], coreNI[c]
		m.switchCores[coreSwitch[c]]++
		m.niCores[coreNI[c]]++
	}
}

// run performs Algorithm 2 steps 3-7: repeatedly choose the heaviest
// remaining flow (preferring already-mapped endpoints), place and route it
// together with the same-pair flows of every other use-case, until all
// flows are mapped.
func (m *mapper) run() error {
	for {
		fi := m.chooseNext()
		if fi < 0 {
			return nil
		}
		if err := m.placeAndRoute(fi); err != nil {
			return err
		}
	}
}

// result assembles the Result of a successful pass: the placement, the
// per-use-case configurations and the statistics of the ledger.
func (m *mapper) result(attempts []Attempt) *Result {
	ev := m.ev
	mapping := &Mapping{
		Topology:   ev.top,
		Params:     ev.p,
		Prep:       ev.prep,
		CoreSwitch: m.coreSwitch,
		CoreNI:     m.coreNI,
		Configs:    m.led.configs(ev.designTables),
	}
	return &Result{Mapping: mapping, Attempts: attempts, Stats: m.led.stats(ev.designTables)}
}

// projectedNIUsed returns the projected slot usage of an NI link in group g:
// slots already reserved plus the remaining demand of every core attached to
// the NI (and of extraCore, a core about to be attached).
func (m *mapper) projectedNIUsed(ni, g int, role niRole, extraCore int) int {
	link := m.ev.niEgress(ni)
	rem := m.remOut[g]
	if role == roleDst {
		link = m.ev.niIngress(ni)
		rem = m.remIn[g]
	}
	used := m.ev.p.SlotTableSize - m.led.states[g].FreeSlots(link)
	for c, n := range m.coreNI {
		if n == ni {
			used += rem[c]
		}
	}
	if extraCore >= 0 {
		used += rem[extraCore]
	}
	return used
}

// chooseNext implements Algorithm 2 step 3: the heaviest remaining flow,
// preferring flows between already-mapped cores, then flows with one mapped
// endpoint. The list is bandwidth-sorted, so the first hit per tier is the
// heaviest of that tier.
func (m *mapper) chooseNext() int {
	for m.scanFrom < len(m.flows) && m.flows[m.scanFrom].done {
		m.scanFrom++
	}
	tierBest := [3]int{-1, -1, -1}
	for i := m.scanFrom; i < len(m.flows); i++ {
		f := &m.flows[i]
		if f.done {
			continue
		}
		if m.ev.p.DisableMappedPreference {
			return i
		}
		sm := m.coreSwitch[f.key.Src] >= 0
		dm := m.coreSwitch[f.key.Dst] >= 0
		tier := 2
		switch {
		case sm && dm:
			tier = 0
		case sm || dm:
			tier = 1
		}
		if tierBest[tier] < 0 {
			tierBest[tier] = i
			if tier == 0 {
				break
			}
		}
	}
	for _, t := range tierBest {
		if t >= 0 {
			return t
		}
	}
	return -1
}

// placeAndRoute handles one chosen flow (steps 4-6): try candidate
// placements for any unmapped endpoint; for each, route and reserve the
// flow's pair in every group that communicates over it (the precomputed
// routing plan). The first placement for which all groups succeed is
// committed; a failed one is rolled back through the ledger.
func (m *mapper) placeAndRoute(fi int) error {
	f := m.flows[fi]
	plan := m.ev.planOf[f.pair]

	placements, err := m.candidatePlacements(f)
	if err != nil {
		return err
	}
	var lastErr error
	for _, pl := range placements {
		if err := m.applyPlacement(pl); err != nil {
			lastErr = err
			continue
		}
		mark := m.led.mark()
		err := m.routeGroups(f.pair, plan)
		if err == nil {
			for _, i := range plan.allInsts {
				m.flows[i].done = true
			}
			return nil
		}
		lastErr = err
		m.rollback(mark)
		m.undoPlacement(pl)
	}
	return fmt.Errorf("core: flow %d->%d (%.1f MB/s, use-case %q): %v",
		f.key.Src, f.key.Dst, f.bw, m.ev.prep.UseCases[f.uc].Name, lastErr)
}

// candidatePlacements enumerates (src switch, dst switch) options for the
// flow's endpoints, cheapest placements first. The list lives in the
// mapper's buffer until the next call.
func (m *mapper) candidatePlacements(f flowInst) ([]placement, error) {
	src, dst := f.key.Src, f.key.Dst
	ss, ds := m.coreSwitch[src], m.coreSwitch[dst]
	g := m.ev.prep.GroupOf[f.uc]
	out := m.placements[:0]
	switch {
	case ss >= 0 && ds >= 0:
		out = append(out, placement{srcSwitch: ss, dstSwitch: ds, src: src, dst: dst})
	case ss >= 0:
		for _, c := range m.rankPlacements(ss, g, dst, -1) {
			out = append(out, placement{placeDst: true, srcSwitch: ss, dstSwitch: c.s, src: src, dst: dst})
		}
		if len(out) == 0 {
			return nil, fmt.Errorf("no switch has NI capacity for core %d", dst)
		}
	case ds >= 0:
		for _, c := range m.rankPlacements(ds, g, src, -1) {
			out = append(out, placement{placeSrc: true, srcSwitch: c.s, dstSwitch: ds, src: src, dst: dst})
		}
		if len(out) == 0 {
			return nil, fmt.Errorf("no switch has NI capacity for core %d", src)
		}
	default:
		// Neither endpoint mapped: seed the source at switches with NI
		// headroom near the mesh centre, then rank destinations around each
		// seed.
		seeds := m.seedSwitches(2, src)
		if len(seeds) == 0 {
			return nil, fmt.Errorf("no switch has NI capacity for core %d", src)
		}
	seeding:
		for _, s := range seeds {
			// The destination may share the seed switch only if two core
			// slots are free there.
			for _, c := range m.rankPlacements(s.s, g, dst, s.s) {
				out = append(out, placement{placeSrc: true, placeDst: true, srcSwitch: s.s, dstSwitch: c.s, src: src, dst: dst})
				if len(out) >= m.ev.p.PlacementCandidates {
					break seeding
				}
			}
		}
		if len(out) == 0 {
			return nil, fmt.Errorf("no switch pair has NI capacity for cores %d,%d", src, dst)
		}
	}
	m.placements = out
	return out, nil
}

// Roles for NI-feasibility checks: a source core needs egress slots on its
// NI, a destination core needs ingress slots.
type niRole int

const (
	roleSrc niRole = iota
	roleDst
)

// niChoice selects the NI of switch s best suited to host core: the one
// whose worst projected usage (over all groups and both directions,
// including the core's own remaining demand) is lowest. ok is false when no
// NI of the switch can host the core within the slot table.
func (m *mapper) niChoice(s int, core traffic.CoreID) (ni, worst int, ok bool) {
	base := s * m.ev.p.NIsPerSwitch
	ni, worst = -1, 0
	for cand := base; cand < base+m.ev.p.NIsPerSwitch; cand++ {
		if m.niCores[cand] >= m.ev.p.CoresPerNI {
			continue
		}
		w := 0
		for g := range m.led.states {
			if u := m.projectedNIUsed(cand, g, roleSrc, int(core)); u > w {
				w = u
			}
			if u := m.projectedNIUsed(cand, g, roleDst, int(core)); u > w {
				w = u
			}
		}
		if ni < 0 || w < worst {
			ni, worst = cand, w
		}
	}
	if ni < 0 || worst > m.ev.p.SlotTableSize {
		return -1, worst, false
	}
	return ni, worst, true
}

// attachPenalty prices attaching core to switch s: the same convex load term
// route.LinkCost applies to mesh links, evaluated on the projected occupancy
// of the NI the core would use. Pricing projected NI load into placement
// makes cores spread to fresh switches before NIs saturate — distance-only
// ranking would pack every core onto the central switches, and no mesh
// growth could ever help.
func (m *mapper) attachPenalty(worst int) float64 {
	occ := float64(worst) / float64(m.ev.p.SlotTableSize)
	if occ > 1 {
		occ = 1
	}
	return m.ev.p.Cost.LoadWeight * occ * occ
}

// switchCand is a candidate switch for a core with its placement score.
type switchCand struct {
	s int
	d float64
}

// compareCands orders candidate switches by score, then index.
func compareCands(a, b switchCand) int {
	if a.d != b.d {
		if a.d < b.d {
			return -1
		}
		return 1
	}
	return a.s - b.s
}

// rankPlacements orders candidate switches for an unmapped endpoint: only
// switches with an NI that can absorb the core's projected demand qualify,
// scored by least-cost-tree distance from the mapped endpoint's switch under
// the group's residual state plus the projected NI load penalty. seedShared
// marks a switch that must keep room for two cores (used when both endpoints
// are placed at once). The list lives in the mapper's buffer until the next
// call.
func (m *mapper) rankPlacements(from, group int, core traffic.CoreID, seedShared int) []switchCand {
	// Rank reachability with a 1-slot requirement: per-link feasibility for
	// the actual reservation is re-checked during routing.
	dist, err := m.ev.paths.LeastCostTree(m.res.route, m.led.states[group], topology.SwitchID(from), 1)
	if err != nil {
		return nil
	}
	cands := m.ranked[:0]
	for s := range m.switchCores {
		free := m.ev.p.CoresPerSwitch() - m.switchCores[s]
		need := 1
		if s == seedShared {
			need = 2 // the seed core also lands here
		}
		if free < need {
			continue
		}
		_, worst, ok := m.niChoice(s, core)
		if !ok {
			continue // no NI on this switch can absorb the core
		}
		d := dist[s]
		if s == from {
			d = 0
		}
		if d < 0 {
			continue // unreachable under current load
		}
		cands = append(cands, switchCand{s, d + m.attachPenalty(worst)})
	}
	slices.SortStableFunc(cands, compareCands)
	m.ranked = cands
	return cands[:min(len(cands), m.ev.p.PlacementCandidates)]
}

// seedSwitches returns up to n switches that can absorb the core's projected
// demand, scored by distance to the topology's centre plus the projected NI
// load penalty (deterministic seed order for flows with no mapped endpoint).
// The list lives in the mapper's buffer until the next call.
func (m *mapper) seedSwitches(n int, core traffic.CoreID) []switchCand {
	top := m.ev.top
	centre := top.Centre()
	cands := m.seeds[:0]
	for s := range m.switchCores {
		if m.switchCores[s] >= m.ev.p.CoresPerSwitch() {
			continue
		}
		_, worst, ok := m.niChoice(s, core)
		if !ok {
			continue
		}
		d := float64(top.HopDistance(topology.SwitchID(s), centre))*m.ev.p.Cost.HopCost +
			m.attachPenalty(worst)
		cands = append(cands, switchCand{s, d})
	}
	slices.SortStableFunc(cands, compareCands)
	m.seeds = cands
	return cands[:min(len(cands), n)]
}

// applyPlacement tentatively attaches unmapped endpoint cores to their
// switches, choosing the NI with the most projected headroom.
func (m *mapper) applyPlacement(pl placement) error {
	place := func(core traffic.CoreID, s int) error {
		ni, _, ok := m.niChoice(s, core)
		if !ok {
			return fmt.Errorf("switch %d cannot absorb core %d", s, core)
		}
		m.coreSwitch[core] = s
		m.coreNI[core] = ni
		m.switchCores[s]++
		m.niCores[ni]++
		return nil
	}
	if pl.placeSrc {
		if err := place(pl.src, pl.srcSwitch); err != nil {
			return err
		}
	}
	if pl.placeDst {
		if err := place(pl.dst, pl.dstSwitch); err != nil {
			if pl.placeSrc {
				m.unplace(pl.src)
			}
			return err
		}
	}
	return nil
}

func (m *mapper) unplace(core traffic.CoreID) {
	s, ni := m.coreSwitch[core], m.coreNI[core]
	if s >= 0 {
		m.switchCores[s]--
		m.niCores[ni]--
	}
	m.coreSwitch[core] = -1
	m.coreNI[core] = -1
}

func (m *mapper) undoPlacement(pl placement) {
	if pl.placeSrc {
		m.unplace(pl.src)
	}
	if pl.placeDst {
		m.unplace(pl.dst)
	}
}

// routeGroups reserves pair idx in every group of its routing plan: the
// reservation is sized by the group's heaviest same-pair flow and must
// satisfy the group's tightest latency constraint; it is granted once in
// the group's shared state (Algorithm 2 steps 4-6), and the pair's
// projected demand in the group is then realized.
func (m *mapper) routeGroups(idx int32, plan *pairPlan) error {
	for i, g := range plan.groups {
		r, err := m.ev.reserveSlots(&m.res, m.led, g, idx, m.coreSwitch, m.coreNI, plan.bw[i], plan.lat[i])
		if err != nil {
			return fmt.Errorf("group %d: %w", g, m.reserveError(err, m.ev.pairList[idx], plan.bw[i], plan.lat[i]))
		}
		r.demand = plan.slots[i]
		m.remOut[g][r.key.Src] -= r.demand
		m.remIn[g][r.key.Dst] -= r.demand
	}
	return nil
}

// reserveError describes a reserveSlots sentinel for the failed reservation
// of key; any other error passes through.
func (m *mapper) reserveError(err error, key traffic.PairKey, bw, latencyNS float64) error {
	p := m.ev.p
	slots0 := tdma.SlotsNeeded(bw, p.SlotBandwidthMBs())
	switch err {
	case errOverCapacity:
		return fmt.Errorf("flow %d->%d needs %d slots, table has %d (bandwidth %0.1f exceeds link capacity %0.1f MB/s)",
			key.Src, key.Dst, slots0, p.SlotTableSize, bw, p.LinkBandwidthMBs())
	case errNoPath:
		return fmt.Errorf("flow %d->%d: no feasible path %d->%d (%d slots)",
			key.Src, key.Dst, m.coreSwitch[key.Src], m.coreSwitch[key.Dst], slots0)
	case errNoAligned:
		budget := "none"
		if b := p.LatencyBudgetSlots(latencyNS); b >= 0 {
			budget = fmt.Sprintf("%d slots", b)
		}
		return fmt.Errorf("flow %d->%d: no aligned slots (need %d, latency budget %s) on any of %d paths",
			key.Src, key.Dst, slots0, budget, m.res.paths)
	}
	return err
}

// rollback undoes the grants of a failed placement trial since mark and
// returns their demand to the NI projection.
func (m *mapper) rollback(mark int) {
	for _, op := range m.led.log[mark:] {
		r := op.rec
		m.remOut[r.group][r.key.Src] += r.demand
		m.remIn[r.group][r.key.Dst] += r.demand
	}
	m.led.rollback(mark)
}
