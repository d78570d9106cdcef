package harness

import (
	"fmt"
	"math"
)

// Compare diffs a fresh benchmark record against a committed baseline. It
// is the CI regression gate:
//
//   - anneal-move rows: ns_delta (the annealer's hot path) may not regress
//     by more than threshold (e.g. 0.25 = 25%) over the baseline row of the
//     same design. ns_full is informational — the legacy path is not what
//     production runs.
//   - benchmark entries present in both records: every quality metric
//     (switches, max_util_pct, norm_*, ...) must match the baseline
//     exactly; these are deterministic engine results, so any drift is a
//     behaviour change, not noise. ns_per_op of single-iteration benchmark
//     entries is ignored — one sample is all noise.
//
// Rows or entries present on only one side are reported but never fail the
// gate, so workloads of different breadth (quick vs full) stay comparable.
type Comparison struct {
	// Lines is the human-readable per-row report.
	Lines []string
	// Failures lists every gate violation; empty means the gate passes.
	Failures []string
}

// OK reports whether the gate passed.
func (c *Comparison) OK() bool { return len(c.Failures) == 0 }

func (c *Comparison) logf(format string, args ...any) {
	c.Lines = append(c.Lines, fmt.Sprintf(format, args...))
}

func (c *Comparison) failf(format string, args ...any) {
	c.Failures = append(c.Failures, fmt.Sprintf(format, args...))
}

// Compare runs the regression gate with the given relative ns threshold.
func Compare(old, fresh *File, threshold float64) *Comparison {
	c := &Comparison{}
	compareAnnealMove(c, old, fresh, threshold)
	compareBenchmarks(c, old, fresh)
	return c
}

func compareAnnealMove(c *Comparison, old, fresh *File, threshold float64) {
	if old.AnnealMove == nil || fresh.AnnealMove == nil {
		c.logf("anneal-move: table missing on one side, skipping")
		return
	}
	baseline := map[string]AnnealMoveRow{}
	for _, r := range old.AnnealMove.Rows {
		baseline[r.Design] = r
	}
	for _, r := range fresh.AnnealMove.Rows {
		b, ok := baseline[r.Design]
		if !ok {
			c.logf("anneal-move %s: no baseline row, skipping", r.Design)
			continue
		}
		ratio := math.Inf(1)
		if b.NsDelta > 0 {
			ratio = float64(r.NsDelta) / float64(b.NsDelta)
		}
		c.logf("anneal-move %s: delta %d -> %d ns/move (%+.1f%%), full %d -> %d",
			r.Design, b.NsDelta, r.NsDelta, (ratio-1)*100, b.NsFull, r.NsFull)
		if ratio > 1+threshold {
			c.failf("anneal-move %s: hot path regressed %.1f%% (%d -> %d ns/move, threshold %.0f%%)",
				r.Design, (ratio-1)*100, b.NsDelta, r.NsDelta, threshold*100)
		}
	}
}

func compareBenchmarks(c *Comparison, old, fresh *File) {
	for _, fb := range fresh.Benchmarks {
		ob := old.Benchmark(fb.Name)
		if ob == nil {
			c.logf("%s: no baseline entry, skipping", fb.Name)
			continue
		}
		for k, want := range ob.Metrics {
			got, ok := fb.Metrics[k]
			switch {
			case !ok:
				c.failf("%s: metric %s missing from fresh run (baseline %g)", fb.Name, k, want)
			case got != want:
				c.failf("%s: metric %s changed: %g -> %g (engine results must be identical)",
					fb.Name, k, want, got)
			}
		}
		c.logf("%s: %d quality metrics checked, ns/op %s",
			fb.Name, len(ob.Metrics), nsNote(ob, &fb))
	}
}

// nsNote renders the informational ns/op movement of a benchmark entry.
func nsNote(old, fresh *Benchmark) string {
	if old.NsPerOp <= 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.0f -> %.0f (%+.1f%%, informational)",
		old.NsPerOp, fresh.NsPerOp, (fresh.NsPerOp/old.NsPerOp-1)*100)
}
