// Allocation regression gates for the evaluation engine. The annealer's
// move path (PlacementInto + TryMove + Undo) must run without heap
// allocations once the session's buffers reach steady state, on every
// D1-D4 design. BenchmarkSessionMove reports the same path with
// -benchmem, using caller-owned placement buffers. Both draw their
// candidates from the measurement harness's move generator, the one the
// anneal-move table (`nocbench -fig perf`) scores. The greedy growth loop
// must stay under a fixed allocation budget per design over the
// BenchmarkGreedySweep mix: a placement trial that is rolled back
// allocates nothing, so the count tracks what a design keeps.
package nocmap_test

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"nocmap/internal/bench"
	"nocmap/internal/bench/harness"
	"nocmap/internal/core"
	"nocmap/internal/usecase"
)

// sessionFixture is one design's ready-to-move session with caller-owned
// placement buffers and a pre-drawn candidate sequence.
type sessionFixture struct {
	sess *core.Session
	seq  []harness.SwapMove
	cs   []int
	cn   []int
}

func newSessionFixture(tb testing.TB, design string) *sessionFixture {
	tb.Helper()
	d, err := bench.ByName(design)
	if err != nil {
		tb.Fatal(err)
	}
	prep, err := usecase.Prepare(d)
	if err != nil {
		tb.Fatal(err)
	}
	p := core.DefaultParams()
	base, err := core.Map(prep, d.NumCores(), p)
	if err != nil {
		tb.Fatal(err)
	}
	m := base.Mapping
	var attached []int
	for c, s := range m.CoreSwitch {
		if s >= 0 {
			attached = append(attached, c)
		}
	}
	seq := harness.MoveSequence(1, attached, m.CoreNI, 64)
	if len(seq) == 0 {
		tb.Fatalf("%s: no swap candidates", design)
	}
	ev, err := core.NewEvaluator(prep, d.NumCores(), m.Topology, p)
	if err != nil {
		tb.Fatal(err)
	}
	sess, err := ev.SessionFrom(base)
	if err != nil {
		tb.Fatal(err)
	}
	return &sessionFixture{
		sess: sess,
		seq:  seq,
		cs:   make([]int, d.NumCores()),
		cn:   make([]int, d.NumCores()),
	}
}

// move scores candidate i and rolls it back, leaving the session on its
// base placement. The whole body is allocation-free at steady state.
func (f *sessionFixture) move(i int) {
	mv := f.seq[i%len(f.seq)]
	f.sess.PlacementInto(f.cs, f.cn)
	f.cs[mv.X], f.cs[mv.Y] = f.cs[mv.Y], f.cs[mv.X]
	f.cn[mv.X], f.cn[mv.Y] = f.cn[mv.Y], f.cn[mv.X]
	if _, err := f.sess.TryMove(f.cs, f.cn, mv.X, mv.Y); err == nil {
		f.sess.Undo()
	}
}

// warmup runs every candidate once so each per-record slot buffer reaches
// the size its worst probe demands; past this point the freelist recycles
// without growth.
func (f *sessionFixture) warmup() {
	for i := range f.seq {
		f.move(i)
	}
}

var allocDesigns = []string{"D1", "D2", "D3", "D4"}

// TestSessionMoveZeroAlloc is the CI gate: after warmup, the session move
// path must average exactly zero allocations per operation on every
// design. Set NOCMAP_SKIP_ALLOC_GATE=1 to skip locally (debug builds,
// coverage instrumentation and some sanitizers allocate behind the
// scenes).
func TestSessionMoveZeroAlloc(t *testing.T) {
	if os.Getenv("NOCMAP_SKIP_ALLOC_GATE") != "" {
		t.Skip("NOCMAP_SKIP_ALLOC_GATE set")
	}
	if testing.CoverMode() != "" {
		t.Skip("coverage instrumentation allocates inside the measured path")
	}
	type row struct {
		design string
		allocs float64
	}
	var rows []row
	failed := false
	for _, design := range allocDesigns {
		f := newSessionFixture(t, design)
		f.warmup()
		i := 0
		allocs := testing.AllocsPerRun(200, func() {
			f.move(i)
			i++
		})
		rows = append(rows, row{design, allocs})
		if allocs != 0 {
			failed = true
		}
	}
	if failed {
		var b strings.Builder
		fmt.Fprintf(&b, "session move path allocates; per-design allocs/op:\n")
		fmt.Fprintf(&b, "  %-6s %10s\n", "design", "allocs/op")
		for _, r := range rows {
			fmt.Fprintf(&b, "  %-6s %10.2f\n", r.design, r.allocs)
		}
		b.WriteString("  (profile with: go test -run TestSessionMoveZeroAlloc -memprofile mem.out -memprofilerate 1)")
		t.Fatal(b.String())
	}
}

// BenchmarkSessionMove measures the steady-state session move path with
// caller-owned buffers; run with -benchmem to see the 0 allocs/op the gate
// above enforces.
func BenchmarkSessionMove(b *testing.B) {
	for _, design := range allocDesigns {
		b.Run(design, func(b *testing.B) {
			f := newSessionFixture(b, design)
			f.warmup()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.move(i)
			}
		})
	}
}

// greedySweepAllocBudget bounds the allocations of one core.Map call,
// averaged over the greedy sweep mix.
const greedySweepAllocBudget = 1000

// TestGreedySweepAllocs is the greedy path's CI gate: mapping the
// BenchmarkGreedySweep design mix once must average fewer than
// greedySweepAllocBudget allocations per design. NOCMAP_SKIP_ALLOC_GATE
// skips it like TestSessionMoveZeroAlloc.
func TestGreedySweepAllocs(t *testing.T) {
	if os.Getenv("NOCMAP_SKIP_ALLOC_GATE") != "" {
		t.Skip("NOCMAP_SKIP_ALLOC_GATE set")
	}
	if testing.CoverMode() != "" {
		t.Skip("coverage instrumentation allocates inside the measured path")
	}
	ds := greedySweepDesigns(t)
	p := core.DefaultParams()
	allocs := testing.AllocsPerRun(1, func() {
		for _, d := range ds {
			if _, err := core.Map(d.prep, d.numCores, p); err != nil {
				t.Fatal(err)
			}
		}
	})
	if perDesign := allocs / float64(len(ds)); perDesign >= greedySweepAllocBudget {
		t.Fatalf("greedy sweep allocates %.0f times per design over %d designs; budget %d\n"+
			"  (profile with: go test -run XXX -bench BenchmarkGreedySweep -memprofile mem.out -memprofilerate 1)",
			perDesign, len(ds), greedySweepAllocBudget)
	}
}
