package core

import (
	"fmt"

	"nocmap/internal/tdma"
	"nocmap/internal/traffic"
)

// ledger is the reservation bookkeeping of Algorithm 2's combined path
// selection and slot reservation, shared by the constructive mapper and the
// Session. It owns
//
//   - one TDMA state per smooth-switching group (group members share one
//     NoC configuration, paper Section 4, so a reservation made for any
//     member occupies slots for all of them);
//   - the live record of every (group, dense pair index) reservation;
//   - a freelist of records, which keep their path and start buffers;
//   - one undo log that journals grants and releases alike.
//
// mark, rollback and commit bracket a tentative change: rollback replays
// the log backwards to a mark, restoring states and live records exactly;
// commit empties the log and recycles the records it released.
// The mapper rolls back a failed placement trial, the Session a rejected
// move. A ledger is single-owner mutable state, like tdma.State.
type ledger struct {
	states    []*tdma.State
	live      [][]*resRecord
	log       []ledgerOp
	free      []*resRecord
	nextOwner int32

	// slab and ints back new records and their path/start buffers, so the
	// ledger allocates in chunks rather than once per grant.
	slab []resRecord
	ints []int
}

// resRecord is one granted reservation: pair idx (key) of group, held under
// owner along path from the start slots in start. hops counts the mesh links
// of path; demand is the projected slot demand the mapper's NI projection
// consumed for it (zero in a session).
type resRecord struct {
	group  int
	owner  int32
	idx    int32
	hops   int32
	key    traffic.PairKey
	path   []int
	start  []int
	demand int
}

// ledgerOp is one undo-log entry: the grant or the release of rec.
type ledgerOp struct {
	rec     *resRecord
	release bool
}

// Chunk sizes of the record slab and the path/start arena.
const (
	slabRecords = 64
	arenaInts   = 1024
)

// newLedger returns an empty ledger for numGroups groups over numPairs
// pairs, with all-free slot tables of the given shape.
func newLedger(numGroups, numPairs, numLinks, slots int) *ledger {
	l := &ledger{states: make([]*tdma.State, numGroups), live: liveTable(numGroups, numPairs)}
	for g := range l.states {
		st, err := tdma.NewState(numLinks, slots)
		if err != nil {
			// Params are validated before any ledger is built.
			panic(fmt.Sprintf("core: internal: %v", err))
		}
		l.states[g] = st
	}
	return l
}

// liveTable returns an empty live-record table, one row per group carved
// from one backing array.
func liveTable(numGroups, numPairs int) [][]*resRecord {
	buf := make([]*resRecord, numGroups*numPairs)
	live := make([][]*resRecord, numGroups)
	for g := range live {
		live[g] = buf[g*numPairs : (g+1)*numPairs : (g+1)*numPairs]
	}
	return live
}

// grant reserves starts along path for pair idx (key) of group g, journals
// the grant and returns its live record, into which path and starts are
// copied. A grant that the state refuses changes nothing.
func (l *ledger) grant(g int, idx int32, key traffic.PairKey, path, starts []int, hops int32) (*resRecord, error) {
	if err := l.states[g].Reserve(l.nextOwner, path, starts); err != nil {
		return nil, err
	}
	r := l.record()
	r.group, r.owner, r.idx, r.hops, r.key, r.demand = g, l.nextOwner, idx, hops, key, 0
	r.path = l.carve(r.path, path)
	r.start = l.carve(r.start, starts)
	l.nextOwner++
	l.live[g][idx] = r
	l.log = append(l.log, ledgerOp{rec: r})
	return r, nil
}

// release frees the live reservation of pair idx in group g and journals it;
// the record stays in the log until a commit recycles it.
func (l *ledger) release(g int, idx int32) {
	r := l.live[g][idx]
	l.states[g].Release(r.owner, r.path, r.start)
	l.live[g][idx] = nil
	l.log = append(l.log, ledgerOp{rec: r, release: true})
}

// mark returns the current log position.
func (l *ledger) mark() int { return len(l.log) }

// rollback undoes every grant and release since mark, newest first.
func (l *ledger) rollback(mark int) {
	for i := len(l.log) - 1; i >= mark; i-- {
		op := l.log[i]
		r := op.rec
		if op.release {
			if err := l.states[r.group].Reserve(r.owner, r.path, r.start); err != nil {
				// The record held these slots before its release; nothing
				// granted since can still hold them.
				panic(fmt.Sprintf("core: internal: ledger rollback failed: %v", err))
			}
			l.live[r.group][r.idx] = r
			continue
		}
		l.states[r.group].Release(r.owner, r.path, r.start)
		l.live[r.group][r.idx] = nil
		l.free = append(l.free, r)
	}
	l.log = l.log[:mark]
}

// commit makes every logged grant and release permanent, recycles the
// released records and empties the log. It takes no mark: a nested region
// cannot be committed on its own, because an enclosing rollback would
// still need the records it released.
func (l *ledger) commit() {
	for _, op := range l.log {
		if op.release {
			l.free = append(l.free, op.rec)
		}
	}
	l.log = l.log[:0]
}

// clone returns an independent ledger holding copies of the live
// reservations, with an empty log; l's log must be empty too.
func (l *ledger) clone() *ledger {
	c := &ledger{
		states:    make([]*tdma.State, len(l.states)),
		live:      liveTable(len(l.live), len(l.live[0])),
		nextOwner: l.nextOwner,
	}
	n, ints := 0, 0
	for _, live := range l.live {
		for _, r := range live {
			if r != nil {
				n++
				ints += pieceSize(len(r.path)) + pieceSize(len(r.start))
			}
		}
	}
	c.slab = make([]resRecord, n)
	c.ints = make([]int, 0, ints)
	for g, live := range l.live {
		c.states[g] = l.states[g].Clone()
		for idx, r := range live {
			if r == nil {
				continue
			}
			nr := c.record()
			*nr = *r
			nr.path = c.carve(nil, r.path)
			nr.start = c.carve(nil, r.start)
			c.live[g][idx] = nr
		}
	}
	return c
}

// record returns a record for a new grant: a recycled one, or a fresh one
// from the slab.
func (l *ledger) record() *resRecord {
	if n := len(l.free); n > 0 {
		r := l.free[n-1]
		l.free = l.free[:n-1]
		return r
	}
	if len(l.slab) == 0 {
		l.slab = make([]resRecord, slabRecords)
	}
	r := &l.slab[0]
	l.slab = l.slab[1:]
	return r
}

// carve copies src into dst's buffer when it fits and into a new piece of
// the arena otherwise. New pieces round up to a power of two, so a recycled
// record's buffers settle after a few grants.
func (l *ledger) carve(dst, src []int) []int {
	if cap(dst) < len(src) {
		size := pieceSize(len(src))
		if cap(l.ints)-len(l.ints) < size {
			l.ints = make([]int, 0, max(arenaInts, size))
		}
		n := len(l.ints)
		l.ints = l.ints[:n+size]
		dst = l.ints[n : n : n+size]
	}
	return append(dst[:0], src...)
}

// pieceSize rounds a buffer length up to the arena piece that holds it.
func pieceSize(n int) int {
	size := 4
	for size < n {
		size *= 2
	}
	return size
}

// stats derives the summary statistics of the live reservations. It walks
// every use-case's flows in declared order, so the floating-point sums are
// the same whichever path — growth loop, Evaluate or a Session move —
// granted the reservations.
func (l *ledger) stats(t *designTables) Stats {
	var st Stats
	T := t.p.SlotTableSize
	minFree := T
	for _, state := range l.states {
		if f := state.MinFree(); f < minFree {
			minFree = f
		}
	}
	st.MaxLinkUtil = 1 - float64(minFree)/float64(T)
	var bwHops, bwSum float64
	for uc, idxs := range t.ucPairIdx {
		live := l.live[t.prep.GroupOf[uc]]
		for i, idx := range idxs {
			r := live[idx]
			if r == nil {
				continue
			}
			bw := t.ucPairs[uc][i].bw
			st.SlotsReserved += len(r.start) * len(r.path)
			bwHops += bw * float64(r.hops)
			bwSum += bw
		}
	}
	if bwSum > 0 {
		st.AvgMeshHops = bwHops / bwSum
	}
	return st
}

// configs materializes the live reservations as one configuration per
// use-case. Each live (group, pair) record becomes one Assignment, shared
// by the group's use-cases; the Configs, the Assignments and their Path and
// Starts are carved from shared backing arrays and alias nothing the
// ledger recycles.
func (l *ledger) configs(t *designTables) []*Config {
	n, ints := 0, 0
	for _, live := range l.live {
		for _, r := range live {
			if r != nil {
				n++
				ints += len(r.path) + len(r.start)
			}
		}
	}
	asn := make([]Assignment, n)
	buf := make([]int, ints)
	byPair := make([]*Assignment, len(t.pairList))
	cfgBuf := make([]Config, len(t.prep.UseCases))
	cfgs := make([]*Config, len(t.prep.UseCases))
	for g, live := range l.live {
		for idx, r := range live {
			byPair[idx] = nil
			if r == nil {
				continue
			}
			a := &asn[0]
			asn = asn[1:]
			np, ns := len(r.path), len(r.start)
			a.Path = buf[:np:np]
			a.Starts = buf[np : np+ns : np+ns]
			buf = buf[np+ns:]
			copy(a.Path, r.path)
			copy(a.Starts, r.start)
			a.SlotCount = ns
			byPair[idx] = a
		}
		for _, uc := range t.prep.Groups[g] {
			cfg := &cfgBuf[uc]
			cfg.Assignments = make(map[traffic.PairKey]*Assignment, len(t.ucPairs[uc]))
			for i, ps := range t.ucPairs[uc] {
				a := byPair[t.ucPairIdx[uc][i]]
				if a == nil {
					panic(fmt.Sprintf("core: internal: flow %d->%d of use-case %d unassigned", ps.key.Src, ps.key.Dst, uc))
				}
				cfg.Assignments[ps.key] = a
			}
			cfgs[uc] = cfg
		}
	}
	return cfgs
}
