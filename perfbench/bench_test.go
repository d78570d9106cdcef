package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"testing"
	"time"

	"nocmap/internal/service"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		ok   bool
		want float64
	}{
		{n: 99, p: 0.9, ok: false},
		{n: 100, p: 0.9, ok: true, want: 90},
		{n: 19, p: 0.5, ok: false},
		{n: 20, p: 0.5, ok: true, want: 10},
		{n: 1000, p: 0.99, ok: true, want: 990},
		{n: 999, p: 0.99, ok: false},
		{n: 0, p: 0.5, ok: false},
	} {
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		got, err := percentile(xs, tc.p)
		if (err == nil) != tc.ok {
			t.Errorf("percentile(n=%d, p=%g): err %v, want ok=%t", tc.n, tc.p, err, tc.ok)
			continue
		}
		if tc.ok && got != tc.want {
			t.Errorf("percentile(n=%d, p=%g) = %g, want %g", tc.n, tc.p, got, tc.want)
		}
		if tc.ok && beyond(tc.n, tc.p) < minBeyond {
			t.Errorf("n=%d p=%g: %d samples beyond", tc.n, tc.p, beyond(tc.n, tc.p))
		}
	}
}

func TestSelfTimesSubtractsCoveredChildIntervals(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{name: "root", start: 0, end: 100 * ms, parent: -1},
		{name: "a", start: 10 * ms, end: 40 * ms, parent: 0},
		{name: "b", start: 30 * ms, end: 60 * ms, parent: 0}, // overlaps a
		{name: "a1", start: 15 * ms, end: 20 * ms, parent: 1},
		{name: "c", start: 90 * ms, end: 120 * ms, parent: 0}, // ends past root
		{name: "other", start: 0, end: 7 * ms, parent: -1},
	}
	want := []time.Duration{100*ms - 50*ms - 10*ms, 25 * ms, 30 * ms, 5 * ms, 30 * ms, 7 * ms}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %v, want %v", spans[i].name, got[i], want[i])
		}
	}
}

func TestPlanIsDeterministicPerSeed(t *testing.T) {
	for _, w := range workloads {
		a, err := makePlan(w, 7, 1)
		if err != nil {
			t.Fatal(err)
		}
		b, err := makePlan(w, 7, 1)
		if err != nil {
			t.Fatal(err)
		}
		c, err := makePlan(w, 8, 1)
		if err != nil {
			t.Fatal(err)
		}
		if a.requestDigest() != b.requestDigest() {
			t.Errorf("%s: seed 7 generated two different request sets", w.name)
		}
		if a.requestDigest() == c.requestDigest() {
			t.Errorf("%s: seeds 7 and 8 generated the same requests", w.name)
		}
		if len(a.timed) < minSamples {
			t.Errorf("%s: %d timed requests, want >= %d", w.name, len(a.timed), minSamples)
		}
		if len(a.timed) != len(c.timed) {
			t.Errorf("%s: request count depends on the seed (%d vs %d)", w.name, len(a.timed), len(c.timed))
		}
	}
}

// useCaseCounts decodes the use-case count of every timed design.
func useCaseCounts(t *testing.T, p *plan) map[int]int {
	t.Helper()
	counts := map[int]int{}
	for _, body := range p.timed {
		var mr struct {
			Design struct {
				UseCases []json.RawMessage `json:"use_cases"`
			} `json:"design"`
		}
		if err := json.Unmarshal(body, &mr); err != nil {
			t.Fatal(err)
		}
		counts[len(mr.Design.UseCases)]++
	}
	return counts
}

func TestPlanShapes(t *testing.T) {
	miss, _ := workloadByName("greedy-miss")
	p, err := makePlan(miss, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, body := range append(append([][]byte(nil), p.warm...), p.timed...) {
		k := string(body)
		if seen[k] {
			t.Fatal("greedy-miss sends one design twice")
		}
		seen[k] = true
	}
	// Stratified sizes: per stratum, each seed sends the same number of
	// designs.
	strata := func(counts map[int]int) []int {
		out := make([]int, roundStrata)
		for uc, n := range counts {
			for i := 0; i < roundStrata; i++ {
				if lo, hi := stratum(i, roundStrata); uc >= lo && uc <= hi {
					out[i] += n
				}
			}
		}
		return out
	}
	q, err := makePlan(miss, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	a, b := strata(useCaseCounts(t, p)), strata(useCaseCounts(t, q))
	for i := range a {
		// D1-D4 fall into fixed strata on both seeds.
		if a[i] != b[i] {
			t.Errorf("stratum %d: %d designs on seed 3, %d on seed 4", i, a[i], b[i])
		}
	}

	hit, _ := workloadByName("hit-replay")
	h, err := makePlan(hit, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(h.warm) != 32 {
		t.Fatalf("hit-replay warms %d designs, want 32", len(h.warm))
	}
	for i, body := range h.timed {
		if !bytes.Equal(body, h.warm[h.hitOf[i]]) {
			t.Fatalf("timed hit %d does not replay warm design %d", i, h.hitOf[i])
		}
	}
	// The hot set is fixed; the seed only orders the replay.
	h4, err := makePlan(hit, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if digest(h.warm) != digest(h4.warm) {
		t.Error("hit-replay's hot set changes with the seed")
	}
}

func TestRequestsAvoidDeprecatedSurface(t *testing.T) {
	for _, w := range workloads {
		p, err := makePlan(w, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		var mr service.MapRequest
		if err := json.Unmarshal(p.timed[0], &mr); err != nil {
			t.Fatal(err)
		}
		switch {
		case mr.TimeoutMS != 0 || mr.Budget != "" || mr.Async:
			t.Errorf("%s: request sets timeout, budget or async", w.name)
		case mr.Engine != "greedy" && mr.Engine != "anneal" && mr.Engine != "exact":
			t.Errorf("%s: engine %q", w.name, mr.Engine)
		case w.engine == "anneal" && (mr.Iters == nil || *mr.Iters != 400):
			t.Errorf("%s: iters %v, want 400", w.name, mr.Iters)
		case w.engine == "exact" && (mr.Nodes == nil || *mr.Nodes != 5000):
			t.Errorf("%s: nodes %v, want 5000", w.name, mr.Nodes)
		}
	}
}

var unitRule = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// benchmarkFile is the subset of BENCHMARK.json the metric tables mirror.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestMetricNamesAndBenchmarkFileAgree(t *testing.T) {
	names := map[string]bool{}
	for _, s := range append(append([]metricSpec(nil), endToEndSpecs...), perLayerSpecs...) {
		if !validName.MatchString(s.name) {
			t.Errorf("metric name %q breaks [A-Za-z0-9_.-]", s.name)
		}
		if names[s.name] {
			t.Errorf("metric %q declared twice", s.name)
		}
		names[s.name] = true
		if !unitRule.MatchString(s.unit) {
			t.Errorf("metric %s: bad unit %q", s.name, s.unit)
		}
		if s.better != "lower" && s.better != "higher" {
			t.Errorf("metric %s: better %q", s.name, s.better)
		}
	}
	for _, w := range workloads {
		if !validName.MatchString(w.name) {
			t.Errorf("workload name %q breaks [A-Za-z0-9_.-]", w.name)
		}
	}

	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why == "" || len(bf.Workloads[i].Why) > 200 {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the benchmark runs %q", i, bf.Workloads[i], w.name)
		}
	}
	if len(bf.EndToEnd) != len(endToEndSpecs) || len(bf.PerLayer) != len(perLayerSpecs) {
		t.Fatalf("BENCHMARK.json declares %d+%d metrics, the benchmark %d+%d",
			len(bf.EndToEnd), len(bf.PerLayer), len(endToEndSpecs), len(perLayerSpecs))
	}
	for i, s := range endToEndSpecs {
		m := bf.EndToEnd[i]
		if m.Name != s.name || m.Unit != s.unit || m.Better != s.better || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end[%d] = %+v, benchmark declares %+v", i, m, s)
		}
	}
	for i, s := range perLayerSpecs {
		m := bf.PerLayer[i]
		if m.Name != s.name || m.Unit != s.unit || m.Better != s.better {
			t.Errorf("per_layer[%d] = %+v, benchmark declares %+v", i, m, s)
		}
	}
}

func TestScanJobID(t *testing.T) {
	for body, want := range map[string]string{
		"{\n  \"id\": \"j12\",\n  \"key\": \"ab\"}": "j12",
		`{"id":"j3"}`: "j3",
		`{"key":"x"}`: "",
		`{"id": 4}`:   "",
	} {
		if got := scanJobID([]byte(body)); got != want {
			t.Errorf("scanJobID(%q) = %q, want %q", body, got, want)
		}
	}
}

// shortRun sets up w on seed and runs the first n timed requests, traced
// or not.
func shortRun(t *testing.T, w workload, seed int64, n int, traced bool) (*phase, *tracer) {
	t.Helper()
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	e, p, err := setUp(w, seed, 1, tr, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	p.timed = p.timed[:n]
	if p.hitOf != nil {
		p.hitOf = p.hitOf[:n]
	}
	return measure(e, w, p, tr), tr
}

func TestResultsAreDeterministicAndChecked(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the service")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a, _ := shortRun(t, w, 5, 3, false)
			b, tr := shortRun(t, w, 5, 3, true)
			for _, ph := range []*phase{a, b} {
				if ph.failed != 0 || ph.claimErr != nil {
					t.Fatalf("failed=%d first=%v claims=%v", ph.failed, ph.firstErr, ph.claimErr)
				}
			}
			if a.digest != b.digest {
				t.Errorf("same seed, different results: %s vs %s", a.digest, b.digest)
			}
			m := tr.layerMetrics()
			if w.hitDesigns > 0 && (m["store.hit_ratio"] != 1 || m["core.attempts_per_req"] != 0) {
				t.Errorf("hit-replay trace: hit ratio %g, attempts %g", m["store.hit_ratio"], m["core.attempts_per_req"])
			}
			if w.name == "greedy-miss" && (m["store.hit_ratio"] != 0 || m["search.moves_per_req"] != 0) {
				t.Errorf("greedy-miss trace: hit ratio %g, moves %g", m["store.hit_ratio"], m["search.moves_per_req"])
			}
		})
	}
}

func TestCLIRejectsBadArguments(t *testing.T) {
	var out, errOut bytes.Buffer
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-workload", "greedy-miss", "-seconds", "0"},
		{"-workload", "greedy-miss", "-trace", "2"},
		{"-bogus"},
	} {
		if code := run(args, &out, &errOut); code == 0 {
			t.Errorf("run(%v) exited 0", args)
		}
	}
	if out.Len() != 0 {
		t.Errorf("rejected runs printed a result: %q", out.String())
	}
}
