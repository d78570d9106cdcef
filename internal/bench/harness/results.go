package harness

import (
	"encoding/json"
	"fmt"
	"os"
)

// The machine-readable benchmark-record format of the BENCH_*.json files
// committed at the repository root. Each record snapshots one measurement
// run: the named Go benchmarks with their reported metrics and the
// anneal-move throughput table. Compare diffs a fresh run against a
// committed record, which is what the CI regression gate executes. Sections
// of older records that the format no longer carries are ignored on load.

// File is one benchmark record.
type File struct {
	Note   string `json:"note,omitempty"`
	Date   string `json:"date,omitempty"`
	Goos   string `json:"goos,omitempty"`
	Goarch string `json:"goarch,omitempty"`
	CPU    string `json:"cpu,omitempty"`

	Benchmarks []Benchmark `json:"benchmarks,omitempty"`
	AnnealMove *AnnealMove `json:"anneal_move,omitempty"`
}

// Benchmark is one named benchmark result. Metrics holds the benchmark's
// custom b.ReportMetric values (switches, max_util_pct, norm_D1, ...); in
// the JSON form they are flattened into the benchmark object, matching the
// historical BENCH_*.json layout.
type Benchmark struct {
	Name       string
	Iterations int
	NsPerOp    float64
	Metrics    map[string]float64
}

// benchmarkKnown enumerates the fixed keys of the flattened benchmark
// object; everything else is a metric.
var benchmarkKnown = map[string]bool{"name": true, "iterations": true, "ns_per_op": true}

// MarshalJSON flattens Metrics into the object.
func (b Benchmark) MarshalJSON() ([]byte, error) {
	m := map[string]any{
		"name":       b.Name,
		"iterations": b.Iterations,
		"ns_per_op":  b.NsPerOp,
	}
	for k, v := range b.Metrics {
		if benchmarkKnown[k] {
			return nil, fmt.Errorf("harness: metric name %q collides with a fixed benchmark field", k)
		}
		m[k] = v
	}
	return json.Marshal(m)
}

// UnmarshalJSON splits the flattened object back into fixed fields and
// metrics.
func (b *Benchmark) UnmarshalJSON(data []byte) error {
	var m map[string]json.RawMessage
	if err := json.Unmarshal(data, &m); err != nil {
		return err
	}
	*b = Benchmark{Metrics: map[string]float64{}}
	for k, raw := range m {
		switch k {
		case "name":
			if err := json.Unmarshal(raw, &b.Name); err != nil {
				return err
			}
		case "iterations":
			if err := json.Unmarshal(raw, &b.Iterations); err != nil {
				return err
			}
		case "ns_per_op":
			if err := json.Unmarshal(raw, &b.NsPerOp); err != nil {
				return err
			}
		default:
			var v float64
			if err := json.Unmarshal(raw, &v); err != nil {
				return fmt.Errorf("harness: benchmark %s metric %s: %w", b.Name, k, err)
			}
			b.Metrics[k] = v
		}
	}
	return nil
}

// AnnealMove is the anneal-move throughput table: the per-move cost of
// scoring one candidate placement through the full re-configuration path
// versus the incremental session, over the same seeded candidate sequence.
type AnnealMove struct {
	Note  string          `json:"note,omitempty"`
	Moves int             `json:"moves"`
	Seed  int64           `json:"seed"`
	Rows  []AnnealMoveRow `json:"rows"`
}

// AnnealMoveRow is one design's measurement.
type AnnealMoveRow struct {
	Design  string  `json:"design"`
	NsFull  int64   `json:"ns_full"`
	NsDelta int64   `json:"ns_delta"`
	Speedup float64 `json:"speedup"`
}

// ReadFile loads a benchmark record.
func ReadFile(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("harness: parse %s: %w", path, err)
	}
	return &f, nil
}

// WriteFile writes a benchmark record with stable formatting (object keys
// marshal in sorted order, so records diff cleanly across runs).
func (f *File) WriteFile(path string) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Benchmark returns the named benchmark entry, or nil.
func (f *File) Benchmark(name string) *Benchmark {
	for i := range f.Benchmarks {
		if f.Benchmarks[i].Name == name {
			return &f.Benchmarks[i]
		}
	}
	return nil
}
