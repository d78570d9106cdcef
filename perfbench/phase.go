package main

import (
	"bytes"
	"fmt"
	"io"
	"time"
)

// phase is one timed pass over a plan's timed requests.
type phase struct {
	outs   []outcome
	checks []checked
	// failed counts requests whose round trip or checks failed; firstErr is
	// the first such failure.
	failed   int
	firstErr error
	// claimErr is set when the service counters contradict what the
	// workload claims to exercise.
	claimErr error
	wall     time.Duration
	// use is the process's CPU and allocation over the timed phase, net of
	// the calibration runs inside it.
	use   usage
	calib []float64
	// chunk is the number of requests between calibrations.
	chunk int
	delta counters
	// digest covers the results in request order.
	digest string
}

// scale converts the phase's raw times to host-normalized ones: the
// shared host's speed drifts by a quarter and more between runs (and the
// calibration routine with it), so every reported time is multiplied by
// calibRefMS over the phase's median calibration time and reads as the
// time on a host where the routine takes calibRefMS.
func (ph *phase) scale() float64 { return calibRefMS / median(ph.calib) }

func (ph *phase) attempted() int { return len(ph.outs) }

// measure runs the timed phase on e: a closed loop with one client and one
// outstanding request, calibrating the host before, between chunks of and
// after it. With a tracer, each request is replayed in-process after its
// round trip, outside the round trip's timed section. All decoding and
// checking happens after the loop.
func measure(e *env, w workload, p *plan, tr *tracer) *phase {
	ph := &phase{outs: make([]outcome, len(p.timed))}
	var excluded usage
	calib := func() {
		before := readUsage()
		ph.calib = append(ph.calib, msOf(calibrate()))
		excluded = excluded.add(readUsage().sub(before))
	}
	before, err := e.scrape()
	if err != nil {
		ph.claimErr = err
	}
	replayed := make([][]byte, len(p.timed))
	replayErr := make([]error, len(p.timed))
	calib()
	chunk := max(1, len(p.timed)/calibChunks)
	ph.chunk = chunk
	start, use0 := time.Now(), readUsage()
	for i, body := range p.timed {
		if i > 0 && i%chunk == 0 {
			calib()
		}
		ph.outs[i] = e.send(body, w.stream)
		if tr != nil {
			before := readUsage()
			replayed[i], replayErr[i] = tr.replay(i, body, w)
			excluded = excluded.add(readUsage().sub(before))
		}
	}
	ph.wall = time.Since(start)
	ph.use = readUsage().sub(use0).sub(excluded)
	calib()

	after, err := e.scrape()
	if err == nil && ph.claimErr == nil {
		ph.delta = after.sub(before)
		ph.claimErr = w.claims(ph.delta)
	} else if ph.claimErr == nil {
		ph.claimErr = err
	}
	var results [][]byte
	for i, o := range ph.outs {
		c, err := e.check(w, o)
		if err == nil {
			err = w.disposition(p, e, i, c)
		}
		if err == nil && tr != nil {
			if err = replayErr[i]; err == nil && !bytes.Equal(replayed[i], c.result) {
				err = fmt.Errorf("replayed result differs from the server's")
			}
		}
		if err != nil {
			ph.failed++
			if ph.firstErr == nil {
				ph.firstErr = fmt.Errorf("request %d: %w", i, err)
			}
		}
		ph.checks = append(ph.checks, c)
		results = append(results, c.result)
	}
	ph.digest = digest(results)
	return ph
}

// disposition checks the cache outcome request i must have: a hit whose
// result reproduces the warming response on hit-replay, a fresh run
// everywhere else.
func (w workload) disposition(p *plan, e *env, i int, c checked) error {
	switch {
	case w.hitDesigns == 0 && c.cached:
		return fmt.Errorf("cache hit on a workload of distinct designs")
	case w.hitDesigns == 0:
		return nil
	case !c.cached:
		return fmt.Errorf("cache miss on hit-replay")
	case !bytes.Equal(c.result, e.warmResults[p.hitOf[i]]):
		return fmt.Errorf("hit result differs from the warming response")
	}
	return nil
}

func (ph *phase) print(out io.Writer, label string) {
	fmt.Fprintf(out, "%s: sent=%d succeeded=%d failed=%d wall_s=%.3f\n",
		label, len(ph.outs), len(ph.outs)-ph.failed, ph.failed, ph.wall.Seconds())
	fmt.Fprintf(out, "%s: results sha256=%s\n", label, ph.digest)
	fmt.Fprintf(out, "%s: counters hits=%g misses=%g moves=%g upgrades=%g\n",
		label, ph.delta.hits, ph.delta.misses, ph.delta.moves, ph.delta.upgrades)
	fmt.Fprintf(out, "%s: host.calib_ms median=%.3f samples=%.3f\n", label, median(ph.calib), ph.calib)
	fmt.Fprintf(out, "%s: host scale=%.4f (reported times = raw times x scale)\n", label, ph.scale())
	first, _ := ph.latencies()
	var chunks []float64
	for i := 0; i < len(first); i += ph.chunk {
		chunks = append(chunks, median(first[i:min(i+ph.chunk, len(first))]))
	}
	fmt.Fprintf(out, "%s: latency_p50_ms per chunk=%.3f\n", label, chunks)
	if ph.firstErr != nil {
		fmt.Fprintf(out, "%s: first failure: %v\n", label, ph.firstErr)
	}
	if ph.claimErr != nil {
		fmt.Fprintf(out, "%s: counter check failed: %v\n", label, ph.claimErr)
	}
}
