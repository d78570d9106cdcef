// Command perfbench is nocmap's end-to-end benchmark. It runs one named
// workload, generated from a seed, against an in-process mapping service
// (noc.NewServer behind a real HTTP listener, /v1 routes only) and prints
// every end-to-end metric; with -trace 1 it instead replays each request
// through the service's layers in-process and prints per-layer metrics.
//
//	go run . -workload greedy-miss -seed 1 -seconds 12 -trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
// The command exits non-zero when any request fails or any check does not
// hold. DESIGN.md describes the workloads, the metrics and the layer to
// end-to-end interaction table.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

// processStart approximates process start: package variables initialize
// before main runs.
var processStart = time.Now()

// setups is how many times a run sets up from scratch; setup_s is the
// median, each set-up host-normalized by a calibration run right after it.
const setups = 3

// calibChunks is how many chunks the timed phase is cut into, with one
// calibration between each pair.
const calibChunks = 32

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", 1, "seed the requests are generated from")
	seconds := fs.Int("seconds", 10, "nominal length of the timed phase; sizes the request count")
	traceFlag := fs.Int("trace", 0, "1: traced run printing per-layer metrics instead of end-to-end ones")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(*name)
	if err != nil || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		if err == nil {
			err = errors.New("-seconds must be >= 1 and -trace 0 or 1")
		}
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	rep, err := bench(w, *seed, *seconds, *traceFlag == 1, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	out, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	if !rep.Correct {
		return 1
	}
	return 0
}

// report is the final output line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// bench sets the service up setups times (keeping the last environment, or
// the last two for a traced run), runs the timed phase and reduces it to
// metrics. Human-readable lines go to out ahead of the JSON report.
func bench(w workload, seed int64, seconds int, traced bool, out io.Writer) (*report, error) {
	fmt.Fprintf(out, "perfbench workload=%s seed=%d seconds=%d trace=%t\n", w.name, seed, seconds, traced)
	var (
		envs        []*env
		p           *plan
		tr          *tracer
		raw, normed []float64
	)
	defer func() {
		for _, e := range envs {
			e.close()
		}
	}()
	for i := 0; i < setups; i++ {
		since := time.Now()
		if i == 0 {
			since = processStart
		}
		var mirror *tracer
		if traced && i == setups-1 {
			tr = newTracer()
			mirror = tr
		}
		e, pl, err := setUp(w, seed, seconds, mirror, since)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		envs, p = append(envs, e), pl
		raw = append(raw, e.setup.Seconds())
		normed = append(normed, e.setup.Seconds()*calibRefMS/msOf(calibrate()))
	}
	// Only the environments the timed phases use stay up.
	keep := 1
	if traced {
		keep = 2
	}
	for _, e := range envs[:len(envs)-keep] {
		e.close()
	}
	envs = envs[len(envs)-keep:]
	fmt.Fprintf(out, "setup_s: raw %.4f normalized %.4f (median of %d)\n", raw, normed, setups)
	fmt.Fprintf(out, "requests: warm=%d timed=%d sha256=%s\n", len(p.warm), len(p.timed), p.requestDigest())

	ph := measure(envs[0], w, p, nil)
	ph.print(out, "untraced")
	rep := &report{Attempted: ph.attempted(), Failed: ph.failed}
	var (
		tp  *phase
		err error
	)
	if !traced {
		rep.Metrics, err = endToEnd(ph, median(normed))
	} else {
		tp = measure(envs[1], w, p, tr)
		tp.print(out, "traced")
		rep.Attempted += tp.attempted()
		rep.Failed += tp.failed
		rep.Metrics, err = perLayer(tr, ph, tp)
	}
	if err != nil {
		return nil, err
	}
	samples := func(name string) int {
		switch name {
		case "setup_s":
			return setups
		case "host.calib_ms":
			return 2 * len(ph.calib)
		}
		return len(ph.outs)
	}
	for _, line := range describe(specsFor(traced), rep.Metrics, samples) {
		fmt.Fprintln(out, line)
	}
	rep.Correct = rep.Failed == 0 && ph.claimErr == nil && (tp == nil || tp.claimErr == nil)
	return rep, nil
}
