package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"nocmap/internal/tdma"
	"nocmap/internal/topology"
	"nocmap/internal/traffic"
)

// ledgerWorker is one ledger under test with its open marks and the live
// reservations each mark must restore.
type ledgerWorker struct {
	l     *ledger
	marks []int
	snaps []string
}

// TestLedgerMatchesReplay drives ledgers through seeded random interleavings
// of grant, release, nested mark/rollback, commit and clone. After every
// step each ledger's slot tables must equal a from-scratch replay of its
// live records — the same FreeSlots per link and the same Owner per slot —
// its freelist must hold no record the live set or the log still uses, and
// a rollback must restore exactly the live reservations of its mark. Clones
// join the interleaving, so a clone that shared state with its source
// would break the source's replay or its own.
func TestLedgerMatchesReplay(t *testing.T) {
	const groups, pairs, links, slots = 3, 6, 8, 16
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		workers := []*ledgerWorker{{l: newLedger(groups, pairs, links, slots)}}
		// Every grant passes the same path and start buffers, as
		// reserveSlots does: the ledger must copy them.
		var pathBuf, startBuf []int
		for step := 0; step < 400; step++ {
			w := workers[rng.Intn(len(workers))]
			l := w.l
			op := ""
			switch r := rng.Intn(20); {
			case r < 8:
				g, idx := rng.Intn(groups), int32(rng.Intn(pairs))
				if l.live[g][idx] != nil {
					break
				}
				pathBuf = append(pathBuf[:0], rng.Perm(links)[:1+rng.Intn(4)]...)
				starts, ok := l.states[g].FindAligned(pathBuf, 1+rng.Intn(3), startBuf)
				if !ok {
					break
				}
				startBuf = starts
				key := traffic.PairKey{Src: traffic.CoreID(idx), Dst: traffic.CoreID(idx + 1)}
				if _, err := l.grant(g, idx, key, pathBuf, starts, int32(len(pathBuf))); err != nil {
					t.Fatalf("seed %d step %d: grant of aligned starts failed: %v", seed, step, err)
				}
				op = fmt.Sprintf("grant g%d p%d", g, idx)
			case r < 13:
				g, idx := rng.Intn(groups), int32(rng.Intn(pairs))
				if l.live[g][idx] == nil {
					break
				}
				l.release(g, idx)
				op = fmt.Sprintf("release g%d p%d", g, idx)
			case r < 15:
				w.marks = append(w.marks, l.mark())
				w.snaps = append(w.snaps, liveSnapshot(l))
				op = "mark"
			case r < 17:
				if len(w.marks) == 0 {
					break
				}
				n := len(w.marks) - 1
				l.rollback(w.marks[n])
				if got := liveSnapshot(l); got != w.snaps[n] {
					t.Fatalf("seed %d step %d: rollback restored\n%s\nwant\n%s", seed, step, got, w.snaps[n])
				}
				w.marks, w.snaps = w.marks[:n], w.snaps[:n]
				op = "rollback"
			case r < 19:
				l.commit()
				w.marks, w.snaps = nil, nil
				op = "commit"
			default:
				if len(l.log) != 0 || len(workers) == 4 {
					break
				}
				c := l.clone()
				if got, want := liveSnapshot(c), liveSnapshot(l); got != want {
					t.Fatalf("seed %d step %d: clone holds\n%s\nwant\n%s", seed, step, got, want)
				}
				workers = append(workers, &ledgerWorker{l: c})
				op = "clone"
			}
			for i, w := range workers {
				if err := checkLedger(w.l, links, slots); err != nil {
					t.Fatalf("seed %d step %d (%s): ledger %d: %v", seed, step, op, i, err)
				}
			}
		}
	}
}

// checkLedger compares every group's state with a fresh replay of the live
// records and checks that no free record is still in use.
func checkLedger(l *ledger, links, slots int) error {
	inUse := map[*resRecord]bool{}
	for g, live := range l.live {
		want, err := tdma.NewState(links, slots)
		if err != nil {
			return err
		}
		for idx, r := range live {
			if r == nil {
				continue
			}
			if r.group != g || r.idx != int32(idx) {
				return fmt.Errorf("record of g%d p%d is filed under g%d p%d", r.group, r.idx, g, idx)
			}
			if err := want.Reserve(r.owner, r.path, r.start); err != nil {
				return fmt.Errorf("live records of group %d conflict: %v", g, err)
			}
			inUse[r] = true
		}
		got := l.states[g]
		for link := 0; link < links; link++ {
			if got.FreeSlots(link) != want.FreeSlots(link) {
				return fmt.Errorf("group %d link %d: %d free slots, replay has %d", g, link, got.FreeSlots(link), want.FreeSlots(link))
			}
			for s := 0; s < slots; s++ {
				if got.Owner(link, s) != want.Owner(link, s) {
					return fmt.Errorf("group %d link %d slot %d: owner %d, replay has %d", g, link, s, got.Owner(link, s), want.Owner(link, s))
				}
			}
		}
	}
	for _, op := range l.log {
		inUse[op.rec] = true
	}
	for _, r := range l.free {
		if inUse[r] {
			return fmt.Errorf("free record of g%d p%d is still live or logged", r.group, r.idx)
		}
	}
	return nil
}

// liveSnapshot renders the live reservations, by group and pair.
func liveSnapshot(l *ledger) string {
	s := ""
	for g, live := range l.live {
		for idx, r := range live {
			if r != nil {
				s += fmt.Sprintf("g%d p%d owner %d path %v starts %v\n", g, idx, r.owner, r.path, r.start)
			}
		}
	}
	return s
}

// TestMapperRollbackRestoresDemand checks that a placement trial rolled
// back after granting some of its groups leaves no trace: the pair's
// driving group (the 500 MB/s use-case) is granted, the second group's
// 1 ns latency bound cannot be met, and every trial of the flow fails. The
// ledger must then be empty, every state all free, and the NI projection
// back at its template — the granted group's demand returned.
func TestMapperRollbackRestoresDemand(t *testing.T) {
	p := DefaultParams()
	pr := prep(t, 2,
		&traffic.UseCase{Name: "wide", Flows: []traffic.Flow{{Src: 0, Dst: 1, BandwidthMBs: 500}}},
		&traffic.UseCase{Name: "tight", Flows: []traffic.Flow{{Src: 0, Dst: 1, BandwidthMBs: 100, MaxLatencyNS: 1}}})
	top, err := p.Topology.ForDim(topology.Dim{Rows: 2, Cols: 2}, p.CoresPerSwitch())
	if err != nil {
		t.Fatal(err)
	}
	ev, err := NewEvaluator(pr, 2, top, p)
	if err != nil {
		t.Fatal(err)
	}
	if groups := ev.planOf[0].groups; len(groups) != 2 {
		t.Fatalf("pair plan has groups %v, want both use-cases' groups", groups)
	}
	m := ev.mapperFor(nil, nil)
	if err := m.placeAndRoute(m.chooseNext()); err == nil {
		t.Fatal("flow with a 1 ns latency bound was placed")
	}
	if len(m.led.log) != 0 {
		t.Errorf("ledger log holds %d entries after every trial failed", len(m.led.log))
	}
	for g, st := range m.led.states {
		if st.MinFree() != p.SlotTableSize {
			t.Errorf("group %d keeps reserved slots after every trial failed", g)
		}
	}
	if !reflect.DeepEqual(m.remOut, ev.remOutTpl) || !reflect.DeepEqual(m.remIn, ev.remInTpl) {
		t.Errorf("NI projection out %v in %v after rollback, want out %v in %v", m.remOut, m.remIn, ev.remOutTpl, ev.remInTpl)
	}
}
