package harness

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"time"

	"nocmap/internal/bench"
	"nocmap/internal/core"
	"nocmap/internal/search"
	"nocmap/internal/usecase"

	// The harness measures every registered engine, so it registers the
	// population and exact subpackages itself rather than relying on a
	// pkg/noc import it does not otherwise need.
	_ "nocmap/internal/search/exact"
	_ "nocmap/internal/search/population"
)

// The measurement harness behind `nocbench -out/-compare`: it produces File
// records from named workload configurations so a fresh run can be diffed
// against a committed BENCH_*.json. It measures the two quantities the
// regression gate cares about: anneal-move throughput (the incremental
// Session path versus the full re-configuration of core.EvaluateFixed) and
// engine wall-clock with result-quality metrics. It is the repository's one
// move-cost measurement: `nocbench -fig perf` prints its anneal-move table,
// and the session allocation gate draws its candidates from MoveSequence.

// Workload is one named measurement configuration.
type Workload struct {
	Name string
	// Designs lists the SoC stand-ins to measure, by bench.ByName name.
	Designs []string
	// Moves is the number of candidate swaps each anneal-move path scores.
	Moves int
	// Seed seeds the candidate generator and the engines.
	Seed int64
}

// workloadTable is the registry of named workloads. "quick" is sized for a
// CI gate (a couple of minutes on one core); "full" covers all four designs
// for the committed record.
var workloadTable = []Workload{
	{Name: "quick", Designs: []string{"D1", "D2"}, Moves: 200, Seed: 1},
	{Name: "full", Designs: []string{"D1", "D2", "D3", "D4"}, Moves: 200, Seed: 1},
}

// WorkloadNames lists the registered workloads in display order.
func WorkloadNames() []string {
	out := make([]string, len(workloadTable))
	for i, w := range workloadTable {
		out[i] = w.Name
	}
	return out
}

// WorkloadByName resolves a workload configuration.
func WorkloadByName(name string) (Workload, error) {
	for _, w := range workloadTable {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("harness: unknown workload %q (have %s)", name, strings.Join(WorkloadNames(), ", "))
}

// Run executes the workload — the anneal-move table over its designs, then
// one run of every registered engine on D1 — and returns its record. logf,
// when non-nil, receives one progress line per measurement.
func Run(ctx context.Context, w Workload, logf func(format string, args ...any)) (*File, error) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	f := &File{
		Note: fmt.Sprintf("nocbench workload %q: %d anneal-move candidates, engine runs (seed %d).",
			w.Name, w.Moves, w.Seed),
		Date:   time.Now().Format("2006-01-02"),
		Goos:   runtime.GOOS,
		Goarch: runtime.GOARCH,
		CPU:    cpuModel(),
	}

	am, err := RunAnnealMove(ctx, w, logf)
	if err != nil {
		return nil, err
	}
	f.AnnealMove = am

	bs, err := runEngines(ctx, w, logf)
	if err != nil {
		return nil, err
	}
	f.Benchmarks = bs
	return f, nil
}

// prepDesign loads a design and its greedy base mapping.
func prepDesign(name string, p core.Params) (*usecase.Prepared, int, *core.Result, error) {
	d, err := bench.ByName(name)
	if err != nil {
		return nil, 0, nil, err
	}
	prep, err := usecase.Prepare(d)
	if err != nil {
		return nil, 0, nil, err
	}
	base, err := core.Map(prep, d.NumCores(), p)
	if err != nil {
		return nil, 0, nil, fmt.Errorf("harness: %s: greedy base: %w", name, err)
	}
	return prep, d.NumCores(), base, nil
}

// SwapMove is one candidate: cores X and Y exchange seats.
type SwapMove struct{ X, Y int }

// MoveSequence pre-generates a deterministic sequence of swap candidates
// over the attached cores, so independent evaluation paths score the same
// neighbours and recorded figures are reproducible. It returns nil when no
// swap exists — fewer than two attached cores, or every attached core
// seated on one NI — or when moves is not positive, instead of drawing
// forever.
func MoveSequence(seed int64, attached, coreNI []int, moves int) []SwapMove {
	possible := false
	for _, c := range attached {
		if coreNI[c] != coreNI[attached[0]] {
			possible = true
			break
		}
	}
	if !possible || moves <= 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]SwapMove, 0, moves)
	for len(out) < moves {
		x := attached[rng.Intn(len(attached))]
		y := attached[rng.Intn(len(attached))]
		if x == y || coreNI[x] == coreNI[y] {
			continue
		}
		out = append(out, SwapMove{x, y})
	}
	return out
}

// RunAnnealMove measures per-move scoring cost on each of the workload's
// designs: the full re-configuration (core.EvaluateFixed) versus the
// incremental Session (TryMove/Undo), both over the identical seeded
// candidate sequence from the greedy placement. Designs whose placement
// admits no swap are skipped. logf may be nil.
func RunAnnealMove(ctx context.Context, w Workload, logf func(string, ...any)) (*AnnealMove, error) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	p := core.DefaultParams()
	am := &AnnealMove{
		Note:  fmt.Sprintf("identical seeded %d-move candidate sequence from the greedy placement, scored by core.EvaluateFixed (full) vs core.Session TryMove/Undo (delta). ns_full/ns_delta are per move.", w.Moves),
		Moves: w.Moves,
		Seed:  w.Seed,
	}
	for _, name := range w.Designs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		prep, numCores, base, err := prepDesign(name, p)
		if err != nil {
			return nil, err
		}
		m := base.Mapping
		var attached []int
		for c, s := range m.CoreSwitch {
			if s >= 0 {
				attached = append(attached, c)
			}
		}
		seq := MoveSequence(w.Seed, attached, m.CoreNI, w.Moves)
		if len(seq) == 0 {
			continue // no swap neighbours on this placement
		}
		cs := make([]int, len(m.CoreSwitch))
		cn := make([]int, len(m.CoreNI))
		place := func(mv SwapMove) {
			copy(cs, m.CoreSwitch)
			copy(cn, m.CoreNI)
			cs[mv.X], cs[mv.Y] = cs[mv.Y], cs[mv.X]
			cn[mv.X], cn[mv.Y] = cn[mv.Y], cn[mv.X]
		}

		full := bestOf(3, func() {
			for _, mv := range seq {
				place(mv)
				_, _ = core.EvaluateFixed(prep, numCores, m.Topology, cs, cn, p)
			}
		})

		ev, err := core.NewEvaluator(prep, numCores, m.Topology, p)
		if err != nil {
			return nil, fmt.Errorf("harness: %s: evaluator: %w", m.Topology, err)
		}
		sess, err := ev.SessionFrom(base)
		if err != nil {
			return nil, fmt.Errorf("harness: %s: session: %w", name, err)
		}
		deltaPass := func() {
			for _, mv := range seq {
				place(mv)
				if _, err := sess.TryMove(cs, cn, mv.X, mv.Y); err == nil {
					sess.Undo()
				}
			}
		}
		// One untimed pass lets every per-record buffer reach its steady-state
		// size, so the timed passes measure the allocation-free regime the
		// annealer actually runs in.
		deltaPass()
		delta := bestOf(3, deltaPass)

		row := AnnealMoveRow{
			Design:  designLabel(name),
			NsFull:  full.Nanoseconds() / int64(len(seq)),
			NsDelta: delta.Nanoseconds() / int64(len(seq)),
		}
		if row.NsDelta > 0 {
			row.Speedup = math.Round(float64(row.NsFull)/float64(row.NsDelta)*100) / 100
		}
		am.Rows = append(am.Rows, row)
		logf("anneal-move %s: full %d ns/move, delta %d ns/move (%.2fx)",
			row.Design, row.NsFull, row.NsDelta, row.Speedup)
	}
	return am, nil
}

// bestOf times n runs of pass and returns the fastest — the estimator least
// disturbed by scheduler noise on a shared CI host, which is what the
// regression gate's threshold assumes.
func bestOf(n int, pass func()) time.Duration {
	best := time.Duration(math.MaxInt64)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		pass()
		if d := time.Since(t0); d < best {
			best = d
		}
	}
	return best
}

// designLabel resolves a short design name to its full label (the name the
// committed records use), falling back to the short name.
func designLabel(name string) string {
	d, err := bench.ByName(name)
	if err != nil {
		return name
	}
	return d.Name
}

// runEngines measures one complete Search per registered engine on design
// D1, reporting wall-clock plus the result-quality metrics the regression
// gate matches exactly (including the run's switch-count lower bound). The
// roster comes from the search registry, so a newly registered engine joins
// the record without touching the harness; the pre-registry engines keep
// their historical benchmark names so records from `go test -bench` and
// from the harness diff against each other.
func runEngines(ctx context.Context, w Workload, logf func(string, ...any)) ([]Benchmark, error) {
	p := core.DefaultParams()
	prep, numCores, _, err := prepDesign("D1", p)
	if err != nil {
		return nil, err
	}
	opts := search.DefaultOptions()
	opts.Seed = w.Seed
	// The historical record names of the pre-registry engines.
	benchName := map[string]string{
		"greedy":    "BenchmarkEngineGreedyD1",
		"anneal":    "BenchmarkEngineAnnealD1",
		"portfolio": "BenchmarkEnginePortfolioD1",
	}
	var out []Benchmark
	for _, name := range search.Names() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		eng, err := search.New(name)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		res, err := eng.Search(ctx, prep, numCores, p, opts)
		if err != nil {
			return nil, fmt.Errorf("harness: engine %s on D1: %w", name, err)
		}
		ns := time.Since(t0).Nanoseconds()
		entry := benchName[name]
		if entry == "" {
			entry = "BenchmarkEngine" + strings.ToUpper(name[:1]) + name[1:] + "D1"
		}
		lb, _ := search.BoundOf(res)
		b := Benchmark{
			Name:       entry,
			Iterations: 1,
			NsPerOp:    float64(ns),
			Metrics: map[string]float64{
				"switches":     float64(res.Mapping.SwitchCount()),
				"max_util_pct": res.Stats.MaxLinkUtil * 100,
				"lower_bound":  float64(lb),
			},
		}
		out = append(out, b)
		logf("engine %s D1: %.1f ms, %d switches, %.2f%% max util, bound %d",
			name, float64(ns)/1e6, res.Mapping.SwitchCount(), res.Stats.MaxLinkUtil*100, lb)
	}
	return out, nil
}

// cpuModel best-effort reads the host CPU model for the record header.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}
