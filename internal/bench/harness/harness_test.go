package harness

import (
	"context"
	"path/filepath"
	"reflect"
	"testing"
)

// record builds a baseline File for the compare tests.
func record() *File {
	return &File{
		Note: "test",
		Benchmarks: []Benchmark{
			{Name: "BenchmarkEngineGreedyD1", Iterations: 1, NsPerOp: 600000,
				Metrics: map[string]float64{"switches": 4, "max_util_pct": 53.125}},
		},
		AnnealMove: &AnnealMove{
			Moves: 200, Seed: 1,
			Rows: []AnnealMoveRow{
				{Design: "D1-settopbox-4uc", NsFull: 600000, NsDelta: 30000, Speedup: 20},
			},
		},
	}
}

func TestFileRoundTrip(t *testing.T) {
	f := record()
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := f.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f, got) {
		t.Fatalf("round trip diverged:\nwrote %+v\nread  %+v", f, got)
	}
}

// TestReadCommittedRecord parses the repository's committed PR 4 record —
// the flattened metric keys of the historical format must keep loading.
func TestReadCommittedRecord(t *testing.T) {
	f, err := ReadFile(filepath.Join("..", "..", "..", "BENCH_pr4.json"))
	if err != nil {
		t.Fatal(err)
	}
	b := f.Benchmark("BenchmarkEngineAnnealD1")
	if b == nil {
		t.Fatal("BenchmarkEngineAnnealD1 missing from BENCH_pr4.json")
	}
	if b.Metrics["switches"] != 4 {
		t.Fatalf("switches metric = %v, want 4", b.Metrics["switches"])
	}
	if f.AnnealMove == nil || len(f.AnnealMove.Rows) != 4 {
		t.Fatalf("anneal_move table incomplete: %+v", f.AnnealMove)
	}
}

func TestCompareGate(t *testing.T) {
	base := record()

	// Identical records pass.
	if c := Compare(base, record(), 0.25); !c.OK() {
		t.Fatalf("identical records fail the gate: %v", c.Failures)
	}

	// A hot-path regression within the threshold passes.
	fresh := record()
	fresh.AnnealMove.Rows[0].NsDelta = 36000 // +20%
	if c := Compare(base, fresh, 0.25); !c.OK() {
		t.Fatalf("+20%% delta fails a 25%% gate: %v", c.Failures)
	}

	// Beyond the threshold fails.
	fresh = record()
	fresh.AnnealMove.Rows[0].NsDelta = 40000 // +33%
	if c := Compare(base, fresh, 0.25); c.OK() {
		t.Fatal("+33% delta passed a 25% gate")
	}

	// A slower legacy path alone never fails the gate.
	fresh = record()
	fresh.AnnealMove.Rows[0].NsFull = 10 * base.AnnealMove.Rows[0].NsFull
	if c := Compare(base, fresh, 0.25); !c.OK() {
		t.Fatalf("ns_full regression failed the gate: %v", c.Failures)
	}

	// Engine-quality drift fails regardless of timing.
	fresh = record()
	fresh.Benchmarks[0].Metrics = map[string]float64{"switches": 5, "max_util_pct": 53.125}
	if c := Compare(base, fresh, 0.25); c.OK() {
		t.Fatal("switch-count drift passed the gate")
	}

	// A missing metric fails.
	fresh = record()
	fresh.Benchmarks[0].Metrics = map[string]float64{"switches": 4}
	if c := Compare(base, fresh, 0.25); c.OK() {
		t.Fatal("missing metric passed the gate")
	}

	// Rows and entries unknown to the baseline are reported, not failed.
	fresh = record()
	fresh.AnnealMove.Rows = append(fresh.AnnealMove.Rows,
		AnnealMoveRow{Design: "D9-new", NsFull: 1, NsDelta: 1})
	fresh.Benchmarks = append(fresh.Benchmarks,
		Benchmark{Name: "BenchmarkNew", Iterations: 1})
	if c := Compare(base, fresh, 0.25); !c.OK() {
		t.Fatalf("new rows failed the gate: %v", c.Failures)
	}
}

func TestWorkloadRegistry(t *testing.T) {
	for _, name := range WorkloadNames() {
		w, err := WorkloadByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if len(w.Designs) == 0 || w.Moves <= 0 {
			t.Fatalf("workload %s underspecified: %+v", name, w)
		}
	}
	if _, err := WorkloadByName("nope"); err == nil {
		t.Fatal("unknown workload resolved")
	}
}

// TestBenchmarkMetricCollision: a metric named like a fixed field must be
// rejected at write time, not silently swallowed at read time.
func TestBenchmarkMetricCollision(t *testing.T) {
	b := Benchmark{Name: "x", Metrics: map[string]float64{"ns_per_op": 1}}
	if _, err := b.MarshalJSON(); err == nil {
		t.Fatal("metric shadowing ns_per_op marshalled")
	}
}

// TestMoveSequenceDeterministic: the candidate sequence is a pure function
// of the seed, so recorded figures are reproducible.
func TestMoveSequenceDeterministic(t *testing.T) {
	attached := []int{0, 1, 2, 3, 4}
	coreNI := []int{0, 1, 2, 3, 4}
	a := MoveSequence(9, attached, coreNI, 25)
	b := MoveSequence(9, attached, coreNI, 25)
	if len(a) != 25 || len(b) != 25 {
		t.Fatalf("wrong lengths: %d, %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sequence diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestMoveSequenceNoSwapPossible: with every attached core on one NI (or a
// non-positive move budget) the generator must return nil instead of
// drawing candidates forever.
func TestMoveSequenceNoSwapPossible(t *testing.T) {
	attached := []int{0, 1, 2}
	oneNI := []int{5, 5, 5}
	if seq := MoveSequence(1, attached, oneNI, 10); seq != nil {
		t.Errorf("single-NI placement yielded %d moves, want none", len(seq))
	}
	if seq := MoveSequence(1, attached, []int{0, 1, 2}, 0); seq != nil {
		t.Errorf("zero move budget yielded %d moves, want none", len(seq))
	}
}

// TestRunAnnealMoveShape keeps the cost low (one design, few moves) while
// pinning the table's contract: one row per design under its full label,
// both timings populated, and the incremental path not slower than the
// full re-configuration (the recorded BENCH figures show the real margin;
// asserting it here would make the test hostage to host noise).
func TestRunAnnealMoveShape(t *testing.T) {
	w := Workload{Name: "shape", Designs: []string{"D1"}, Moves: 40, Seed: 1}
	am, err := RunAnnealMove(context.Background(), w, nil)
	if err != nil {
		t.Fatal(err)
	}
	if am.Moves != 40 || am.Seed != 1 || len(am.Rows) != 1 {
		t.Fatalf("table mislabelled: %+v", am)
	}
	r := am.Rows[0]
	if r.Design != designLabel("D1") || r.Design == "D1" {
		t.Errorf("row design %q, want the full D1 label", r.Design)
	}
	if r.NsFull <= 0 || r.NsDelta <= 0 {
		t.Errorf("timings not populated: %+v", r)
	}
	if r.Speedup < 1 {
		t.Errorf("incremental evaluation slower than full re-configuration: speedup %.2f", r.Speedup)
	}
}
