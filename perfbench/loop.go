package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"time"

	"nocmap/internal/core"
	"nocmap/internal/search"
	"nocmap/internal/service"
	"nocmap/pkg/noc"
)

// env is one in-process mapping service behind a real HTTP listener, with
// the single keep-alive client that drives it.
type env struct {
	srv    *noc.Server
	ts     *httptest.Server
	client *http.Client
	// warmResults[i] is the compacted result of warm request i (the bytes
	// every hit-replay response must reproduce).
	warmResults [][]byte
	// setup is the wall time this environment took to become ready.
	setup time.Duration
}

func (e *env) close() {
	e.ts.Close()
	e.srv.Close()
}

// setUp starts a service with the default configuration (two workers on a
// two-core host), sends the plan's warm requests and, when tr is non-nil,
// replays them into the tracer's mirror store. since is the instant the
// set-up is measured from.
func setUp(w workload, seed int64, seconds int, tr *tracer, since time.Time) (*env, *plan, error) {
	srv := noc.NewServer(noc.ServerConfig{})
	ts := httptest.NewServer(srv.Handler())
	e := &env{srv: srv, ts: ts, client: ts.Client()}
	p, err := makePlan(w, seed, seconds)
	if err != nil {
		e.close()
		return nil, nil, err
	}
	for i, body := range p.warm {
		o := e.send(body, w.stream)
		c, err := e.check(w, o)
		if err != nil {
			e.close()
			return nil, nil, fmt.Errorf("warm request %d: %w", i, err)
		}
		e.warmResults = append(e.warmResults, c.result)
		if tr != nil {
			if _, err := tr.replay(-1, body, w); err != nil {
				e.close()
				return nil, nil, fmt.Errorf("warm replay %d: %w", i, err)
			}
		}
	}
	// A hit-replay set-up also sends one untimed pass of hits, so the
	// timed phase starts with the hit path warm.
	if w.hitDesigns > 0 {
		for i, body := range p.warm {
			if _, err := e.check(w, e.send(body, false)); err != nil {
				e.close()
				return nil, nil, fmt.Errorf("warm hit %d: %w", i, err)
			}
		}
	}
	e.setup = time.Since(since)
	return e, p, nil
}

// outcome is one timed round trip, raw: decoding and checking happen after
// the timed phase.
type outcome struct {
	// first is the time until the client held a complete mapping (the sync
	// response or the stream's 202); final is the time until the last
	// mapping (equal to first for sync requests).
	first, final time.Duration
	status       int
	body         []byte
	// events is the SSE body of a streamed job.
	events []byte
	err    error
}

// send performs one closed-loop request: POST the pre-encoded body, read
// the answer in full and, for a stream, follow the job's events to the end.
func (e *env) send(body []byte, stream bool) outcome {
	var o outcome
	start := time.Now()
	resp, err := e.client.Post(e.ts.URL+"/v1/map", "application/json", bytes.NewReader(body))
	if err != nil {
		o.err = err
		return o
	}
	o.body, o.err = io.ReadAll(resp.Body)
	resp.Body.Close()
	o.first = time.Since(start)
	o.final = o.first
	o.status = resp.StatusCode
	if o.err != nil || !stream || o.status != http.StatusAccepted {
		return o
	}
	ev, err := e.client.Get(e.ts.URL + "/v1/jobs/" + scanJobID(o.body) + "/events")
	if err != nil {
		o.err = err
		return o
	}
	o.events, o.err = io.ReadAll(ev.Body)
	ev.Body.Close()
	o.final = time.Since(start)
	if o.err == nil && ev.StatusCode != http.StatusOK {
		o.err = fmt.Errorf("events: HTTP %d", ev.StatusCode)
	}
	return o
}

// scanJobID extracts the job ID from a JobStatus body without decoding it,
// so the stream's timed section holds no JSON decode of the result.
func scanJobID(body []byte) string {
	const key = `"id":`
	i := bytes.Index(body, []byte(key))
	if i < 0 {
		return ""
	}
	rest := bytes.TrimLeft(body[i+len(key):], " ")
	if len(rest) == 0 || rest[0] != '"' {
		return ""
	}
	rest = rest[1:]
	j := bytes.IndexByte(rest, '"')
	if j < 0 {
		return ""
	}
	return string(rest[:j])
}

// Wire forms decoded after the clock stops. Results stay raw so they can be
// compared byte for byte.
type wireResponse struct {
	Cached  bool             `json:"cached"`
	Timings *service.Timings `json:"timings"`
	Result  json.RawMessage  `json:"result"`
}

type wireJob struct {
	ID     string        `json:"id"`
	State  string        `json:"state"`
	Error  string        `json:"error"`
	Result *wireResponse `json:"result"`
}

type wireEvent struct {
	Stage    string        `json:"stage"`
	Final    bool          `json:"final"`
	Response *wireResponse `json:"response"`
}

// checked is a verified outcome.
type checked struct {
	// result is the compacted final result JSON.
	result []byte
	sum    service.Result
	cached bool
	// queueMS is the producing run's queue wait (0 on cache hits).
	queueMS float64
}

// check verifies one outcome: HTTP success, a verify-clean result with
// switches >= lower_bound_switches, the cache disposition the workload
// promises and, for streams, a final event equal to GET /v1/jobs/{id}.
func (e *env) check(w workload, o outcome) (checked, error) {
	var c checked
	if o.err != nil {
		return c, o.err
	}
	if !w.stream {
		if o.status != http.StatusOK {
			return c, fmt.Errorf("HTTP %d: %s", o.status, firstLine(o.body))
		}
		var r wireResponse
		if err := json.Unmarshal(o.body, &r); err != nil {
			return c, fmt.Errorf("decode response: %w", err)
		}
		c.cached = r.Cached
		if !r.Cached && r.Timings != nil {
			c.queueMS = r.Timings.QueueMS
		}
		return c, c.verify(r.Result)
	}
	if o.status != http.StatusAccepted {
		return c, fmt.Errorf("HTTP %d: %s", o.status, firstLine(o.body))
	}
	var first wireJob
	if err := json.Unmarshal(o.body, &first); err != nil {
		return c, fmt.Errorf("decode 202: %w", err)
	}
	if first.Result == nil {
		return c, fmt.Errorf("202 for job %s carries no inline result", first.ID)
	}
	if err := c.verify(first.Result.Result); err != nil {
		return c, fmt.Errorf("inline result: %w", err)
	}
	c.cached = first.Result.Cached
	evs, err := parseSSE(o.events)
	if err != nil {
		return c, err
	}
	last := evs[len(evs)-1]
	if !last.Final || last.Stage != service.StreamDone || last.Response == nil {
		return c, fmt.Errorf("job %s: stream ended with %q (final %t)", first.ID, last.Stage, last.Final)
	}
	job, err := e.job(first.ID)
	if err != nil {
		return c, err
	}
	if job.State != string(service.StateDone) || job.Result == nil {
		return c, fmt.Errorf("job %s: state %s %s", job.ID, job.State, job.Error)
	}
	if err := c.verify(last.Response.Result); err != nil {
		return c, fmt.Errorf("final event: %w", err)
	}
	if got := compact(job.Result.Result); !bytes.Equal(got, c.result) {
		return c, fmt.Errorf("job %s: final event result differs from GET /v1/jobs/{id}", job.ID)
	}
	if job.Result.Timings != nil {
		c.queueMS = job.Result.Timings.QueueMS
	}
	return c, nil
}

// verify decodes a result and holds it to the service's own invariants.
func (c *checked) verify(raw json.RawMessage) error {
	c.result = compact(raw)
	if err := json.Unmarshal(raw, &c.sum); err != nil {
		return fmt.Errorf("decode result: %w", err)
	}
	if len(c.sum.Violations) > 0 {
		return fmt.Errorf("design %s: %d violations, first: %s", c.sum.Design, len(c.sum.Violations), c.sum.Violations[0])
	}
	if c.sum.Switches < c.sum.LowerBoundSwitches || c.sum.Switches < 1 {
		return fmt.Errorf("design %s: %d switches below bound %d", c.sum.Design, c.sum.Switches, c.sum.LowerBoundSwitches)
	}
	return nil
}

// cost scores the result with the engines' default weights.
func (c *checked) cost() float64 {
	return search.DefaultCostWeights().OfParts(c.sum.Switches, core.Stats{
		MaxLinkUtil: c.sum.MaxLinkUtil, AvgMeshHops: c.sum.AvgMeshHops, SlotsReserved: c.sum.SlotsReserved,
	})
}

func (e *env) job(id string) (wireJob, error) {
	var j wireJob
	resp, err := e.client.Get(e.ts.URL + "/v1/jobs/" + id)
	if err != nil {
		return j, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return j, fmt.Errorf("GET /v1/jobs/%s: HTTP %d", id, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&j); err != nil {
		return j, fmt.Errorf("decode job %s: %w", id, err)
	}
	return j, nil
}

// parseSSE splits an event-stream body into its events' data payloads.
func parseSSE(body []byte) ([]wireEvent, error) {
	var evs []wireEvent
	for _, frame := range strings.Split(string(body), "\n\n") {
		for _, line := range strings.Split(frame, "\n") {
			data, ok := strings.CutPrefix(line, "data: ")
			if !ok {
				continue
			}
			var ev wireEvent
			if err := json.Unmarshal([]byte(data), &ev); err != nil {
				return nil, fmt.Errorf("decode event: %w", err)
			}
			evs = append(evs, ev)
		}
	}
	if len(evs) == 0 {
		return nil, fmt.Errorf("event stream carried no events")
	}
	return evs, nil
}

func compact(raw []byte) []byte {
	var b bytes.Buffer
	if err := json.Compact(&b, raw); err != nil {
		return raw
	}
	return b.Bytes()
}

func firstLine(b []byte) string {
	s, _, _ := strings.Cut(strings.TrimSpace(string(b)), "\n")
	return s
}

// counters are the service counters each workload is held to.
type counters struct {
	hits, misses, moves, upgrades float64
}

func (c counters) sub(d counters) counters {
	return counters{c.hits - d.hits, c.misses - d.misses, c.moves - d.moves, c.upgrades - d.upgrades}
}

// scrape reads the counters from GET /v1/metrics, summing label sets.
func (e *env) scrape() (counters, error) {
	var c counters
	resp, err := e.client.Get(e.ts.URL + "/v1/metrics")
	if err != nil {
		return c, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return c, fmt.Errorf("GET /v1/metrics: HTTP %d", resp.StatusCode)
	}
	fields := map[string]*float64{
		"noc_cache_hits_total":     &c.hits,
		"noc_cache_misses_total":   &c.misses,
		"noc_search_moves_total":   &c.moves,
		"noc_cache_upgrades_total": &c.upgrades,
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		// A sample line is `name value` or `name{labels} value`.
		name, sample := line, strings.Fields(line)
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
		}
		if dst, ok := fields[name]; ok && len(sample) > 1 {
			v, err := strconv.ParseFloat(sample[len(sample)-1], 64)
			if err != nil {
				return c, fmt.Errorf("metric %s: %w", name, err)
			}
			*dst += v
		}
	}
	return c, sc.Err()
}

// claims checks that the timed phase exercised what the workload claims.
func (w workload) claims(d counters) error {
	total := d.hits + d.misses
	if total == 0 {
		return fmt.Errorf("no admissions counted")
	}
	ratio := d.hits / total
	switch {
	case w.hitDesigns > 0 && ratio != 1:
		return fmt.Errorf("hit ratio %.3f, want 1", ratio)
	case w.hitDesigns == 0 && ratio != 0:
		return fmt.Errorf("hit ratio %.3f, want 0", ratio)
	case w.engine == "greedy" && d.moves != 0:
		return fmt.Errorf("%g search moves on a greedy workload, want 0", d.moves)
	case w.stream && d.upgrades <= 0:
		return fmt.Errorf("no cache upgrades on a stream workload")
	}
	return nil
}
