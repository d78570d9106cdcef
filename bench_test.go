// Benchmarks regenerating every table and figure of the paper's evaluation
// (Section 6), plus the ablation studies called out in DESIGN.md. Each
// benchmark reports the figure's key quantities as custom metrics, so
//
//	go test -bench=. -benchmem
//
// both regenerates the results and tracks the harness's own cost. Use
// -benchtime=1x for a single regeneration pass.
package nocmap_test

import (
	"context"
	"runtime"
	"testing"

	"nocmap/internal/bench"
	"nocmap/internal/core"
	"nocmap/internal/experiments"
	"nocmap/internal/search"
	"nocmap/internal/traffic"
	"nocmap/internal/usecase"
)

// BenchmarkFig6aSoCDesigns regenerates Figure 6(a): normalized switch count
// of the proposed method versus the WC baseline on D1-D4.
func BenchmarkFig6aSoCDesigns(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cs, err := experiments.Fig6a()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, c := range cs {
				b.ReportMetric(c.Normalized, "norm_"+metricSafe(c.Label))
			}
		}
	}
}

// BenchmarkFig6bSpread regenerates Figure 6(b): the Spread-benchmark
// use-case sweep.
func BenchmarkFig6bSpread(b *testing.B) {
	benchSweep(b, bench.Spread)
}

// BenchmarkFig6cBottleneck regenerates Figure 6(c): the Bottleneck sweep.
func BenchmarkFig6cBottleneck(b *testing.B) {
	benchSweep(b, bench.Bottleneck)
}

func benchSweep(b *testing.B, class bench.Class) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		cs, err := experiments.Fig6Synthetic(class, experiments.DefaultSweep())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, c := range cs {
				b.ReportMetric(c.Normalized, "norm_"+metricSafe(c.Label))
			}
		}
	}
}

// metricSafe makes a label usable as a ReportMetric unit (no whitespace).
func metricSafe(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		if s[i] == ' ' || s[i] == '\t' {
			out = append(out, '_')
			continue
		}
		out = append(out, s[i])
	}
	return string(out)
}

// BenchmarkFig7aAreaFrequency regenerates Figure 7(a): the area-frequency
// Pareto curve of design D1.
func BenchmarkFig7aAreaFrequency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := experiments.Fig7a(experiments.DefaultParetoFreqs())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, p := range pts {
				if p.Feasible {
					b.ReportMetric(p.AreaMM2, "mm2_at_"+itoa(int(p.FreqMHz)))
				}
			}
		}
	}
}

// BenchmarkFig7bDVSDFS regenerates Figure 7(b): DVS/DFS power savings.
func BenchmarkFig7bDVSDFS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rs, err := experiments.Fig7b()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rs {
				b.ReportMetric(r.Savings*100, "savings_pct_"+r.Label)
			}
		}
	}
}

// BenchmarkFig7cParallel regenerates Figure 7(c): required frequency versus
// the number of parallel use-cases.
func BenchmarkFig7cParallel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := experiments.Fig7c(4)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, p := range pts {
				if p.Feasible {
					b.ReportMetric(p.FreqMHz, "mhz_par"+itoa(p.Parallel))
				}
			}
		}
	}
}

// BenchmarkSec62Extremes regenerates the Section 6.2 scalability extremes
// (D3 and the 40-use-case benchmarks where the WC method is infeasible).
func BenchmarkSec62Extremes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		es, err := experiments.Sec62Extremes()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, e := range es {
				wc := float64(e.WCCount)
				if !e.WCFeasible {
					wc = -1 // infeasible marker
				}
				b.ReportMetric(float64(e.OursCount), "ours_"+metricSafe(e.Label))
				b.ReportMetric(wc, "wc_"+metricSafe(e.Label))
			}
		}
	}
}

// BenchmarkHeadline regenerates the abstract's aggregate claims.
func BenchmarkHeadline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h, err := experiments.RunHeadline()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(h.AreaReductionPct, "area_reduction_pct")
			b.ReportMetric(h.PowerSavingsPct, "power_savings_pct")
		}
	}
}

// BenchmarkAblationPreference measures ablation A1: Algorithm 2's preference
// for flows with already-mapped endpoints, on the 10-use-case Sp benchmark.
func BenchmarkAblationPreference(b *testing.B) {
	benchAblation(b, func(p *core.Params) { p.DisableMappedPreference = true }, "no_preference")
}

// BenchmarkAblationUnified measures ablation A2: decoupling slot allocation
// from path selection.
func BenchmarkAblationUnified(b *testing.B) {
	benchAblation(b, func(p *core.Params) { p.DisableUnifiedSlots = true }, "non_unified")
}

func benchAblation(b *testing.B, mutate func(*core.Params), label string) {
	b.Helper()
	d, err := bench.Synthetic(bench.SpreadSpec(10, experiments.SpFamilySeed))
	if err != nil {
		b.Fatal(err)
	}
	prep, err := usecase.Prepare(d)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		base := core.DefaultParams()
		abl := core.DefaultParams()
		mutate(&abl)
		rb, err := core.Map(prep, d.NumCores(), base)
		if err != nil {
			b.Fatal(err)
		}
		ra, err := core.Map(prep, d.NumCores(), abl)
		switchesAbl := -1.0
		if err == nil {
			switchesAbl = float64(ra.Mapping.SwitchCount())
		}
		if i == 0 {
			b.ReportMetric(float64(rb.Mapping.SwitchCount()), "switches_full")
			b.ReportMetric(switchesAbl, "switches_"+label)
		}
	}
}

// BenchmarkAblationSlotTable sweeps the TDMA table size (ablation A3).
func BenchmarkAblationSlotTable(b *testing.B) {
	d, err := bench.Synthetic(bench.SpreadSpec(10, experiments.SpFamilySeed))
	if err != nil {
		b.Fatal(err)
	}
	prep, err := usecase.Prepare(d)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		for _, T := range []int{16, 32, 64, 128} {
			p := core.DefaultParams()
			p.SlotTableSize = T
			res, err := core.Map(prep, d.NumCores(), p)
			count := -1.0
			if err == nil {
				count = float64(res.Mapping.SwitchCount())
			}
			if i == 0 {
				b.ReportMetric(count, "switches_T"+itoa(T))
			}
		}
	}
}

// BenchmarkEngineGreedyD1, BenchmarkEngineAnnealD1 and
// BenchmarkEnginePortfolioD1 measure the throughput of the internal/search
// engines on design D1: one op is one complete Search, so ns/op is the
// wall-clock cost of designing the NoC with that strategy.
func BenchmarkEngineGreedyD1(b *testing.B)    { benchEngine(b, "greedy") }
func BenchmarkEngineAnnealD1(b *testing.B)    { benchEngine(b, "anneal") }
func BenchmarkEnginePortfolioD1(b *testing.B) { benchEngine(b, "portfolio") }

func benchEngine(b *testing.B, name string) {
	b.Helper()
	d, err := bench.D1()
	if err != nil {
		b.Fatal(err)
	}
	prep, err := usecase.Prepare(d)
	if err != nil {
		b.Fatal(err)
	}
	eng, err := search.New(name)
	if err != nil {
		b.Fatal(err)
	}
	p := core.DefaultParams()
	opts := search.DefaultOptions()
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := eng.Search(ctx, prep, d.NumCores(), p, opts)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(res.Mapping.SwitchCount()), "switches")
			b.ReportMetric(res.Stats.MaxLinkUtil*100, "max_util_pct")
		}
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var buf [12]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

// sweepDesign is one prepared design of the greedy-path mix.
type sweepDesign struct {
	prep     *usecase.Prepared
	numCores int
}

// greedySweepDesigns prepares the greedy-path design mix: D1-D4 plus Spread
// and Bottleneck synthetics with 2-20 use-cases at three seeds each, 118
// designs.
func greedySweepDesigns(tb testing.TB) []sweepDesign {
	tb.Helper()
	var ds []sweepDesign
	add := func(d *traffic.Design, err error) {
		if err != nil {
			tb.Fatal(err)
		}
		prep, err := usecase.Prepare(d)
		if err != nil {
			tb.Fatal(err)
		}
		ds = append(ds, sweepDesign{prep, d.NumCores()})
	}
	for _, name := range []string{"D1", "D2", "D3", "D4"} {
		add(bench.ByName(name))
	}
	for _, c := range []bench.Class{bench.Spread, bench.Bottleneck} {
		for uc := 2; uc <= 20; uc++ {
			for seed := int64(1); seed <= 3; seed++ {
				add(bench.Synthetic(c.SpecFor(uc, seed)))
			}
		}
	}
	return ds
}

// BenchmarkGreedySweep measures the greedy growth loop (core.Map) over the
// greedy-path design mix. One op maps every design once; allocs/design is
// the per-design allocation count.
func BenchmarkGreedySweep(b *testing.B) {
	ds := greedySweepDesigns(b)
	p := core.DefaultParams()
	b.ReportAllocs()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, d := range ds {
			if _, err := core.Map(d.prep, d.numCores, p); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N*len(ds)), "allocs/design")
}
