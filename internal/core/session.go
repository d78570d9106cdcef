package core

import (
	"fmt"
	"slices"

	"nocmap/internal/route"
	"nocmap/internal/topology"
)

// Session is incremental evaluation over one evolving placement. It owns a
// fully-configured state (every flow of every group routed and reserved)
// and evaluates a move — a few cores changing seats — by tearing down and
// re-routing only the pairs whose endpoints moved, instead of
// re-configuring the world. When the delta path cannot re-route a pair
// (the incremental order wedges where a from-scratch pass would not), it
// falls back to a full re-evaluation transparently — and because the
// groups of a fixed placement never share slot tables, that fallback
// decomposes per smooth-switching group: only the wedged group is re-routed
// from scratch, and one group's from-scratch failure rejects the move
// without evaluating the rest.
//
// A move is two-phase: TryMove reserves the new configuration and returns
// its statistics with the move pending; Keep commits it, Undo restores the
// previous configuration exactly. This is the shape a Metropolis acceptance
// loop needs — the annealer scores the candidate before deciding. All of it
// is bookkeeping on the session's reservation ledger, the one the mapper
// uses: a move is a ledger mark, the teardown and re-route journal their
// releases and grants, a wedged group rolls back to its own mark and
// re-routes from scratch, Undo (or a rejection) rolls back to the move's
// mark, and Keep commits it.
//
// The move path performs no heap allocation in steady state: records and
// their path/start buffers are recycled through the ledger's freelist, and
// the log and every scratch are retained move over move (error formatting
// on cold validation paths is the deliberate exception).
// TestSessionMoveZeroAlloc gates this at 0 allocs/op in CI.
//
// The configurations a session reaches by deltas are always feasible,
// verified reservations, but they are not guaranteed to be the same
// configuration a from-scratch evaluation of the same placement would
// build: the incremental pass re-routes moved pairs against the standing
// reservations of unmoved ones, while a full pass routes everything in
// global bandwidth order. Search engines only need feasibility plus a
// deterministic score, which both paths provide.
//
// A Session is single-owner mutable state, like tdma.State: concurrent
// searches each own one (the evaluator underneath is shared). Clone forks
// an independent session at the same configuration — the population
// engines seed every member of a population as one clone of the base.
type Session struct {
	ev *Evaluator

	// cs/cn hold the current placement; csAlt/cnAlt are the spare buffers
	// the next TryMove writes its candidate into (the pair swaps, so no
	// placement copy ever allocates).
	cs, cn       []int
	csAlt, cnAlt []int

	// led holds the committed reservations; between moves its log is
	// empty, so a move spans the log from mark 0.
	led   *ledger
	stats Stats

	// pending is set while a tried move awaits Keep or Undo; next holds its
	// statistics.
	pending bool
	next    Stats

	sc moveScratch
}

// moveScratch is the reusable working state of one session's moves.
type moveScratch struct {
	res      reserveScratch
	affected []int32
	seenPair []bool
	seats    []int
	swCheck  []int
}

// Move-rejection sentinels: a search engine probes thousands of placements
// whose rejections are ordinary control flow, so the hot path reports them
// without formatting.
var (
	errPendingMove    = fmt.Errorf("core: session has a pending move (Keep or Undo it first)")
	errNICapacity     = fmt.Errorf("core: move overfills an NI's slot-table capacity")
	errSwitchCapacity = fmt.Errorf("core: move overfills a switch's mesh-link capacity")
	errMoveInfeasible = fmt.Errorf("core: move infeasible: a group's flows no longer route or fit their slot tables")
)

// newSession builds a session over the ledger l at the placement
// (coreSwitch, coreNI), with every buffer sized for the evaluator's design.
func (ev *Evaluator) newSession(l *ledger, coreSwitch, coreNI []int) *Session {
	numPairs := len(ev.pairList)
	s := &Session{
		ev:    ev,
		cs:    slices.Clone(coreSwitch),
		cn:    slices.Clone(coreNI),
		csAlt: make([]int, ev.numCores),
		cnAlt: make([]int, ev.numCores),
		led:   l,
		stats: l.stats(ev.designTables),
	}
	s.sc.res.route = route.NewScratch()
	s.sc.affected = make([]int32, 0, numPairs)
	s.sc.seenPair = make([]bool, numPairs)
	s.sc.seats = make([]int, ev.top.NumSwitches()*ev.p.NIsPerSwitch)
	return s
}

// NewSession fully evaluates the placement and, on success, returns a
// session positioned at it. Every communicating core must be placed: a
// session evaluates moves of an existing complete placement, it does not
// run the constructive placement phase.
func (ev *Evaluator) NewSession(coreSwitch, coreNI []int) (*Session, error) {
	if err := ev.ValidatePlacement(coreSwitch, coreNI, nil); err != nil {
		return nil, err
	}
	for _, c := range ev.active {
		if coreSwitch[c] < 0 {
			return nil, fmt.Errorf("core: session placement leaves communicating cores unattached")
		}
	}
	m, err := ev.attempt(coreSwitch, coreNI)
	if err != nil {
		return nil, err
	}
	// Adopt the pass's ledger: the mapper never returns to the pool, so its
	// records are exclusively this session's.
	m.led.commit()
	return ev.newSession(m.led, coreSwitch, coreNI), nil
}

// SessionFrom positions a session at an existing Result's configuration
// without re-running the configuration phase: the result's reservations are
// replayed through the ledger's grant path exactly as granted. This matters
// beyond speed — a constructive (growth-loop) result is not always
// reproducible by a fixed-placement re-evaluation, because the constructive
// pass routed flows while the placement was still emerging; adopting the
// reservations keeps such results annealable. The result must be a
// feasible configuration on this evaluator's topology (engine results
// verified by internal/verify always are). The reservation data is copied,
// never aliased: the ledger's buffer recycling must not reach into the
// source result.
func (ev *Evaluator) SessionFrom(res *Result) (*Session, error) {
	if res == nil || res.Mapping == nil {
		return nil, fmt.Errorf("core: session from nil result")
	}
	m := res.Mapping
	if m.Topology.NumSwitches() != ev.top.NumSwitches() || m.Topology.NumLinks() != ev.top.NumLinks() {
		return nil, fmt.Errorf("core: result fabric %s does not match evaluator fabric %s", m.Topology, ev.top)
	}
	if err := ev.ValidatePlacement(m.CoreSwitch, m.CoreNI, nil); err != nil {
		return nil, err
	}
	l := ev.newLedger()
	// Replay the group-shared assignment of every (group, pair) from the
	// per-use-case configurations.
	for uc := range ev.prep.UseCases {
		g := ev.prep.GroupOf[uc]
		cfg := m.Configs[uc]
		if cfg == nil {
			return nil, fmt.Errorf("core: result misses configuration of use-case %d", uc)
		}
		for i, ps := range ev.ucPairs[uc] {
			a := cfg.Assignments[ps.key]
			if a == nil {
				return nil, fmt.Errorf("core: result misses assignment of pair %d->%d", ps.key.Src, ps.key.Dst)
			}
			idx := ev.ucPairIdx[uc][i]
			if l.live[g][idx] != nil {
				continue
			}
			if _, err := l.grant(g, idx, ps.key, a.Path, a.Starts, ev.pathHops(a.Path)); err != nil {
				return nil, fmt.Errorf("core: result not reservable (pair %d->%d, group %d): %w", ps.key.Src, ps.key.Dst, g, err)
			}
		}
	}
	l.commit()
	return ev.newSession(l, m.CoreSwitch, m.CoreNI), nil
}

// Clone forks an independent session at the same committed configuration:
// same placement, same reservations, same statistics, disjoint mutable
// state. The clones share only the immutable evaluator underneath, so each
// runs its own move loop — the population driver clones the base session
// once per member and then moves every member independently. Cloning with
// a pending move is an error.
func (s *Session) Clone() (*Session, error) {
	if s.pending {
		return nil, errPendingMove
	}
	return s.ev.newSession(s.led.clone(), s.cs, s.cn), nil
}

// Stats returns the statistics of the current committed configuration.
func (s *Session) Stats() Stats { return s.stats }

// Placement returns copies of the current placement.
func (s *Session) Placement() (coreSwitch, coreNI []int) {
	return append([]int(nil), s.cs...), append([]int(nil), s.cn...)
}

// PlacementInto copies the current placement into the caller's buffers
// (each must have the design's core count) — the allocation-free form of
// Placement for proposal loops.
func (s *Session) PlacementInto(coreSwitch, coreNI []int) {
	copy(coreSwitch, s.cs)
	copy(coreNI, s.cn)
}

// TryMove evaluates the placement (coreSwitch, coreNI), which must differ
// from the session's current placement only at the listed moved cores. On
// success the move is pending — commit with Keep or roll back with Undo —
// and the returned Stats describe the new configuration. On error the
// session is unchanged and no move is pending.
func (s *Session) TryMove(coreSwitch, coreNI []int, moved ...int) (Stats, error) {
	if s.pending {
		return Stats{}, errPendingMove
	}
	if err := s.ev.ValidatePlacement(coreSwitch, coreNI, s.sc.seats); err != nil {
		return Stats{}, err
	}
	for _, c := range moved {
		if c < 0 || c >= s.ev.numCores {
			return Stats{}, fmt.Errorf("core: moved core %d out of range", c)
		}
	}
	for c := 0; c < s.ev.numCores; c++ {
		if coreSwitch[c] == s.cs[c] && coreNI[c] == s.cn[c] {
			continue
		}
		listed := false
		for _, m := range moved {
			if m == c {
				listed = true
				break
			}
		}
		if !listed {
			return Stats{}, fmt.Errorf("core: core %d changed seats but is not listed as moved", c)
		}
	}
	if err := s.niCapacityCheck(coreNI, moved); err != nil {
		return Stats{}, err
	}
	if err := s.switchCapacityCheck(coreSwitch, moved); err != nil {
		return Stats{}, err
	}

	// Collect the pairs with a moved endpoint in the deterministic global
	// routing order (the incidence lists are ascending; the merge is sorted
	// back after dedup).
	affected := s.sc.affected[:0]
	for mi, c := range moved {
		dup := false
		for _, c2 := range moved[:mi] {
			if c2 == c {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		for _, idx := range s.ev.pairsOf[c] {
			if !s.sc.seenPair[idx] {
				s.sc.seenPair[idx] = true
				affected = append(affected, idx)
			}
		}
	}
	slices.Sort(affected)
	for _, idx := range affected {
		s.sc.seenPair[idx] = false
	}
	s.sc.affected = affected

	// Adopt the candidate placement (buffer swap; undoMove swaps back).
	copy(s.csAlt, coreSwitch)
	copy(s.cnAlt, coreNI)
	s.cs, s.csAlt = s.csAlt, s.cs
	s.cn, s.cnAlt = s.cnAlt, s.cn

	// Tear down every affected pair.
	l, ev := s.led, s.ev
	for _, idx := range affected {
		for _, g := range ev.planOf[idx].groups {
			l.release(g, idx)
		}
	}

	// Re-route group by group. The groups of a fixed placement are fully
	// independent — each owns its slot tables — so a group whose delta
	// re-route wedges falls back to a from-scratch re-route of that group
	// alone (identical to its share of a full re-evaluation), and a group
	// whose from-scratch pass fails proves the whole move infeasible
	// without touching the remaining groups.
	for g := range l.states {
		mark := l.mark()
		if s.rerouteDelta(g, affected) == nil {
			continue
		}
		l.rollback(mark)
		if s.rebuildGroup(g) != nil {
			s.undoMove()
			return Stats{}, errMoveInfeasible
		}
	}
	s.next = l.stats(ev.designTables)
	s.pending = true
	return s.next, nil
}

// rerouteDelta re-routes the affected pairs group g communicates over, in
// the global routing order.
func (s *Session) rerouteDelta(g int, affected []int32) error {
	for _, idx := range affected {
		plan := s.ev.planOf[idx]
		gi := slices.Index(plan.groups, g)
		if gi < 0 {
			continue // this group does not communicate over the pair
		}
		if _, err := s.ev.reserveSlots(&s.sc.res, s.led, g, idx, s.cs, s.cn, plan.bw[gi], plan.lat[gi]); err != nil {
			return err
		}
	}
	return nil
}

// rebuildGroup releases every pair of group g and re-routes them all from
// scratch in the global order. On success the group carries exactly the
// configuration a full re-evaluation of the placement would grant it; a
// failure leaves the group for the move's rollback to restore.
func (s *Session) rebuildGroup(g int) error {
	l := s.led
	pairs := s.ev.groupPairs[g]
	for _, pd := range pairs {
		if l.live[g][pd.idx] != nil {
			l.release(g, pd.idx)
		}
	}
	for _, pd := range pairs {
		if _, err := s.ev.reserveSlots(&s.sc.res, l, g, pd.idx, s.cs, s.cn, pd.bw, pd.lat); err != nil {
			return err
		}
	}
	return nil
}

// undoMove rolls the ledger back to the move's mark and restores the
// placement.
func (s *Session) undoMove() {
	s.led.rollback(0)
	s.cs, s.csAlt = s.csAlt, s.cs
	s.cn, s.cnAlt = s.cnAlt, s.cn
}

// niCapacityCheck rejects moves that are infeasible regardless of routing:
// every pair a core sources (sinks) crosses its NI's egress (ingress) link,
// and each pair needs at least its bandwidth-driven slot count there, so a
// group's total demand on any NI link is bounded below by the sum of its
// cores' demands. When a moved-to NI exceeds the slot table on that bound,
// no re-route — incremental or from scratch — can succeed, and the
// expensive fallback is skipped. The bound is exact-necessary, so no
// feasible move is ever rejected here.
func (s *Session) niCapacityCheck(coreNI []int, moved []int) error {
	T := s.ev.p.SlotTableSize
	for mi, c := range moved {
		ni := coreNI[c]
		if ni < 0 {
			continue
		}
		dup := false
		for _, c2 := range moved[:mi] {
			if coreNI[c2] == ni {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		for g := range s.ev.prep.Groups {
			sumOut, sumIn := 0, 0
			for c2, n := range coreNI {
				if n == ni {
					sumOut += s.ev.remOutTpl[g][c2]
					sumIn += s.ev.remInTpl[g][c2]
				}
			}
			if sumOut > T || sumIn > T {
				return errNICapacity
			}
		}
	}
	return nil
}

// switchCapacityCheck extends the NI bound to the mesh side: every pair
// between distinct switches must leave its source switch through one of its
// outgoing mesh links and enter the destination switch through an incoming
// one, so a group's cross-switch demand at a switch is bounded by its link
// degree times the slot table. Only the switches whose core membership the
// move changes are re-checked. Like the NI bound this is exact-necessary:
// violating it proves the placement infeasible before any routing runs.
func (s *Session) switchCapacityCheck(coreSwitch []int, moved []int) error {
	T := s.ev.p.SlotTableSize
	buf := s.sc.swCheck[:0]
	for _, c := range moved {
		for _, sw := range [2]int{coreSwitch[c], s.cs[c]} {
			if sw < 0 {
				continue
			}
			seen := false
			for _, s2 := range buf {
				if s2 == sw {
					seen = true
					break
				}
			}
			if !seen {
				buf = append(buf, sw)
			}
		}
	}
	s.sc.swCheck = buf
	for _, sw := range buf {
		cap := s.ev.top.Degree(topology.SwitchID(sw)) * T
		for _, pairs := range s.ev.groupPairs {
			sumOut, sumIn := 0, 0
			for _, pd := range pairs {
				srcS, dstS := coreSwitch[pd.key.Src], coreSwitch[pd.key.Dst]
				if srcS == sw && dstS != sw {
					sumOut += pd.slots
				}
				if dstS == sw && srcS != sw {
					sumIn += pd.slots
				}
			}
			if sumOut > cap || sumIn > cap {
				return errSwitchCapacity
			}
		}
	}
	return nil
}

// Keep commits the pending move and recycles the displaced records.
func (s *Session) Keep() {
	if !s.pending {
		return
	}
	s.led.commit()
	s.stats = s.next
	s.pending = false
}

// Undo rolls back the pending move, restoring the previous configuration
// exactly.
func (s *Session) Undo() {
	if !s.pending {
		return
	}
	s.pending = false
	s.undoMove()
}

// Result materializes the current committed configuration as a complete
// Result, equivalent in shape to an EvaluateFixed output. It must not be
// called while a move is pending. All reservation data is copied out of the
// ledger, which recycles its record buffers move over move.
func (s *Session) Result() *Result {
	if s.pending {
		panic("core: Session.Result with a pending move")
	}
	ev := s.ev
	mapping := &Mapping{
		Topology:   ev.top,
		Params:     ev.p,
		Prep:       ev.prep,
		CoreSwitch: slices.Clone(s.cs),
		CoreNI:     slices.Clone(s.cn),
		Configs:    s.led.configs(ev.designTables),
	}
	dim := topology.Dim{Rows: ev.top.Rows, Cols: ev.top.Cols}
	return &Result{Mapping: mapping, Attempts: []Attempt{{Dim: dim}}, Stats: s.stats}
}
