package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"nocmap/internal/core"
	"nocmap/internal/search"
	"nocmap/internal/topology"
	"nocmap/internal/traffic"
)

// MapRequest is the wire form of one mapping request. Design embeds the
// standard design interchange JSON (the format nocgen writes and nocmap
// reads) unchanged; the remaining fields override the engine defaults.
// Pointer fields distinguish "absent" from an explicit zero.
type MapRequest struct {
	Design json.RawMessage `json:"design"`
	// Engine picks the search engine (default "greedy").
	Engine string `json:"engine,omitempty"`
	// Topology picks the interconnect family: "mesh" (default) or "torus".
	// When empty, a "topology" tag inside the design JSON applies. The
	// choice flows into the design's canonical digest, so requests on
	// different fabrics never share a cache entry. Custom fabrics carry
	// their link lists and are CLI-only (nocmap -topology @file.json).
	Topology string `json:"topology,omitempty"`
	// Seed, Seeds, Iters override search.DefaultOptions.
	Seed  *int64 `json:"seed,omitempty"`
	Seeds *int   `json:"seeds,omitempty"`
	Iters *int   `json:"iters,omitempty"`
	// Population and Generations size the population engines (ga, pso, abc);
	// Nodes is the exact engine's deterministic node budget.
	Population  *int `json:"population,omitempty"`
	Generations *int `json:"generations,omitempty"`
	Nodes       *int `json:"nodes,omitempty"`
	// Budget is a Go duration string ("30s") bounding the search.
	Budget string `json:"budget,omitempty"`
	// FreqMHz, Slots, MaxDim, Improve override core.DefaultParams.
	FreqMHz *float64 `json:"freq_mhz,omitempty"`
	Slots   *int     `json:"slots,omitempty"`
	MaxDim  *int     `json:"max_dim,omitempty"`
	Improve bool     `json:"improve,omitempty"`
	// TimeoutMS bounds the engine run, measured from when a worker picks
	// the job up; time spent waiting in the queue does not count.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Async makes POST /v1/map return a job ID immediately (HTTP 202) instead
	// of the result; poll GET /v1/jobs/{id} for completion.
	Async bool `json:"async,omitempty"`
	// Mode selects the answer discipline. "stream" serves-then-improves:
	// the greedy result is computed inline and returned with HTTP 202 in
	// milliseconds while the requested engine keeps improving in the
	// background; incumbent improvements arrive on GET /v1/jobs/{id}/events
	// (SSE, or long-poll with ?mode=poll). Empty (or "sync") keeps the
	// blocking behavior. Mode and Async are mutually exclusive.
	Mode string `json:"mode,omitempty"`
	// WaitMS, with the stream mode, bounds how long POST /v1/map waits for the
	// background improvement before answering with the best incumbent so
	// far — the "pay only for the quality you wait for" knob. WaitMS alone
	// (no Mode) implies stream mode.
	WaitMS int64 `json:"wait_ms,omitempty"`
}

// streaming reports whether the request asked for serve-then-improve mode.
func (mr *MapRequest) streaming() bool {
	return mr.Mode == "stream" || (mr.Mode == "" && mr.WaitMS > 0)
}

// ToRequest validates the wire form into a service Request.
func (mr *MapRequest) ToRequest() (Request, error) {
	var req Request
	if len(mr.Design) == 0 {
		return req, fmt.Errorf("service: request has no design")
	}
	d, err := traffic.ReadJSON(bytes.NewReader(mr.Design))
	if err != nil {
		return req, err
	}
	req.Design = d
	req.Engine = mr.Engine
	if req.Engine == "" {
		req.Engine = "greedy"
	}
	req.Params = core.DefaultParams()
	// Resolve the fabric: the request field wins, then the design's own tag.
	tag := mr.Topology
	if tag == "" {
		tag = d.Topology
	}
	if strings.HasPrefix(tag, "custom:") {
		return req, fmt.Errorf("service: custom fabrics (%s) carry their link lists and are CLI-only; map locally with nocmap -topology @fabric.json", tag)
	}
	kind, err := topology.ParseKind(tag)
	if err != nil {
		return req, fmt.Errorf("service: %w", err)
	}
	req.Params.Topology = topology.Spec{Kind: kind}
	d.Topology = req.Params.Topology.CanonicalID()
	req.Opts = search.DefaultOptions()
	if mr.Seed != nil {
		req.Opts.Seed = *mr.Seed
	}
	if mr.Seeds != nil {
		req.Opts.Seeds = *mr.Seeds
	}
	if mr.Iters != nil {
		req.Opts.Iters = *mr.Iters
	}
	if mr.Population != nil {
		req.Opts.Population = *mr.Population
	}
	if mr.Generations != nil {
		req.Opts.Generations = *mr.Generations
	}
	if mr.Nodes != nil {
		req.Opts.Nodes = *mr.Nodes
	}
	if mr.Budget != "" {
		b, err := time.ParseDuration(mr.Budget)
		if err != nil {
			return req, fmt.Errorf("service: bad budget %q: %w", mr.Budget, err)
		}
		req.Opts.Budget = b
	}
	if mr.FreqMHz != nil {
		req.Params.FreqMHz = *mr.FreqMHz
	}
	if mr.Slots != nil {
		req.Params.SlotTableSize = *mr.Slots
	}
	if mr.MaxDim != nil {
		req.Params.MaxMeshDim = *mr.MaxDim
	}
	req.Params.Improve = mr.Improve
	if mr.TimeoutMS > 0 {
		req.Timeout = time.Duration(mr.TimeoutMS) * time.Millisecond
	}
	return req, nil
}

// BatchRequest is the wire form of POST /v1/batch.
type BatchRequest struct {
	Requests []MapRequest `json:"requests"`
}

// BatchResponse is the wire form of the POST /v1/batch reply; Results is in
// request order.
type BatchResponse struct {
	Results []BatchResult `json:"results"`
}

// BatchResult is one entry of a batch reply: a response or an error.
type BatchResult struct {
	Response *Response `json:"response,omitempty"`
	Error    string    `json:"error,omitempty"`
}

// NewHandler returns the HTTP facade of the service. The blessed surface is
// versioned under /v1:
//
//	POST /v1/map       — map one design; {"async":true} returns 202 + job ID;
//	                     {"mode":"stream"} serves the greedy result in a 202
//	                     immediately and improves in the background
//	POST /v1/batch     — map many designs in one call on the shared pool
//	GET  /v1/jobs/{id} — job state (queued|running|done|failed) and result
//	GET  /v1/jobs/{id}/events — serve-then-improve event stream (SSE by
//	                     default, ?mode=poll long-poll; resume with ?after)
//	GET  /v1/designs/{digest} — the cached result for a request digest
//	                     (404 when the store holds none); on a sharded
//	                     store, foreign digests resolve via their owner
//	GET  /v1/stats     — cache hit/miss counters, store and pool gauges
//	GET  /v1/metrics   — Prometheus text exposition of the service metrics
//	GET  /v1/version   — build identity (module version, VCS revision)
//	GET  /healthz      — liveness, build version, uptime (unversioned on
//	                     purpose: probe configs outlive API revisions)
//
// Every route runs behind the observability middleware: the request is
// tagged with an X-Request-ID (caller-supplied or generated, echoed on the
// response and stamped into job records), counted in
// noc_http_requests_total{route,status}, timed into
// noc_http_request_duration_seconds{route}, and logged structurally.
// Unversioned paths other than /healthz answer 404.
func NewHandler(s *Service) http.Handler {
	mux := http.NewServeMux()
	// instrument wraps a handler with the observability middleware. route is
	// the canonical pattern ("/v1/jobs/{id}"), not the concrete path, so
	// metric cardinality stays bounded.
	instrument := func(route string, h http.HandlerFunc) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			start := time.Now()
			id := sanitizeRequestID(r.Header.Get("X-Request-ID"))
			if id == "" {
				id = NewRequestID()
			}
			w.Header().Set("X-Request-ID", id)
			r = r.WithContext(ContextWithRequestID(r.Context(), id))
			rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
			h(rec, r)
			elapsed := time.Since(start)
			s.met.httpRequests.WithLabelValues(route, strconv.Itoa(rec.status)).Inc()
			s.met.httpSeconds.WithLabelValues(route).Observe(elapsed.Seconds())
			s.log.Info("http request", "request_id", id, "method", r.Method,
				"route", route, "path", r.URL.Path, "status", rec.status,
				"duration_ms", ms(elapsed))
		}
	}
	// handle mounts one instrumented route under /v1.
	handle := func(method, path string, h http.HandlerFunc) {
		mux.HandleFunc(method+" /v1"+path, instrument("/v1"+path, h))
	}

	handle("POST", "/map", func(w http.ResponseWriter, r *http.Request) {
		var mr MapRequest
		if !decodeBody(w, r, &mr) {
			return
		}
		req, err := mr.ToRequest()
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		req.RequestID = RequestIDFrom(r.Context())
		switch mr.Mode {
		case "", "sync", "stream":
		default:
			writeError(w, http.StatusBadRequest, fmt.Errorf("service: unknown mode %q (valid: sync, stream)", mr.Mode))
			return
		}
		if mr.streaming() {
			if mr.Async {
				writeError(w, http.StatusBadRequest, fmt.Errorf("service: async and stream mode are mutually exclusive"))
				return
			}
			st, err := s.SubmitStream(r.Context(), req)
			if err != nil {
				writeError(w, statusOf(err), err)
				return
			}
			if mr.WaitMS > 0 && st.State != StateDone && st.State != StateFailed {
				// Trade patience for quality: wait up to WaitMS for the
				// background improvement, then answer with the best so far.
				wctx, cancel := context.WithTimeout(r.Context(), time.Duration(mr.WaitMS)*time.Millisecond)
				st, _ = s.WaitJob(wctx, st.ID)
				cancel()
			}
			writeJSON(w, http.StatusAccepted, st)
			return
		}
		if mr.Async {
			id, err := s.Submit(req)
			if err != nil {
				writeError(w, statusOf(err), err)
				return
			}
			st, _ := s.Job(id)
			writeJSON(w, http.StatusAccepted, st)
			return
		}
		resp, err := s.Map(r.Context(), req)
		if err != nil {
			writeError(w, statusOf(err), err)
			return
		}
		writeJSON(w, http.StatusOK, resp)
	})

	handle("POST", "/batch", func(w http.ResponseWriter, r *http.Request) {
		var br BatchRequest
		if !decodeBody(w, r, &br) {
			return
		}
		if len(br.Requests) == 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("batch has no requests"))
			return
		}
		reqs := make([]Request, len(br.Requests))
		for i := range br.Requests {
			if br.Requests[i].streaming() {
				writeError(w, http.StatusBadRequest, fmt.Errorf("request %d: stream mode is not supported in a batch; submit it on /v1/map", i))
				return
			}
			req, err := br.Requests[i].ToRequest()
			if err != nil {
				writeError(w, http.StatusBadRequest, fmt.Errorf("request %d: %w", i, err))
				return
			}
			req.RequestID = RequestIDFrom(r.Context())
			reqs[i] = req
		}
		items := s.MapBatch(r.Context(), reqs)
		out := BatchResponse{Results: make([]BatchResult, len(items))}
		for i, it := range items {
			out.Results[i] = BatchResult{Response: it.Response}
			if it.Err != nil {
				out.Results[i].Error = it.Err.Error()
			}
		}
		writeJSON(w, http.StatusOK, out)
	})

	handle("GET", "/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		st, ok := s.Job(r.PathValue("id"))
		if !ok {
			writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
			return
		}
		writeJSON(w, http.StatusOK, st)
	})

	handle("GET", "/jobs/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		serveJobEvents(s, w, r)
	})

	handle("GET", "/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Stats())
	})

	// /v1/designs is also the peer-forwarding path of a sharded store —
	// replicas resolve foreign digests against their owner here.
	handle("GET", "/designs/{digest}", func(w http.ResponseWriter, r *http.Request) {
		digest := r.PathValue("digest")
		resp, ok := s.Design(r.Context(), digest)
		if !ok {
			writeError(w, http.StatusNotFound, fmt.Errorf("no cached result for digest %q", digest))
			return
		}
		writeJSON(w, http.StatusOK, resp)
	})

	handle("GET", "/version", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, BuildVersion())
	})

	metricsHandler := s.Metrics().Handler()
	handle("GET", "/metrics", func(w http.ResponseWriter, r *http.Request) {
		metricsHandler.ServeHTTP(w, r)
	})

	mux.HandleFunc("GET /healthz", instrument("/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, healthResponse{
			OK:            true,
			Version:       BuildVersion(),
			StartedAt:     startedAt.UTC().Format(time.RFC3339),
			UptimeSeconds: time.Since(startedAt).Seconds(),
		})
	}))

	return mux
}

// healthResponse is the GET /healthz body: liveness, build identity, and the
// process start/uptime pair that tells a fresh restart from a long-running
// healthy daemon.
type healthResponse struct {
	OK      bool        `json:"ok"`
	Version VersionInfo `json:"version"`
	// StartedAt is the process start time, RFC 3339 UTC.
	StartedAt string `json:"started_at"`
	// UptimeSeconds is the seconds elapsed since StartedAt.
	UptimeSeconds float64 `json:"uptime_seconds"`
}

// statusRecorder captures the status code a handler writes so the middleware
// can label metrics and logs with it.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// Flush forwards streaming flushes (the SSE events route) to the wrapped
// writer, preserving its http.Flusher capability through the middleware.
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// statusOf maps service errors to HTTP status codes. Unrecognized errors map
// to 400: at this point the request has been admitted, so what remains are
// engine-level rejections of the request's content (bad parameters, invalid
// prepared use-cases), which are the client's to fix.
func statusOf(err error) int {
	var inf *core.InfeasibleError
	switch {
	case errors.Is(err, ErrQueueFull):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrClosed):
		return http.StatusServiceUnavailable
	case errors.As(err, &inf):
		return http.StatusUnprocessableEntity
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout
	default:
		return http.StatusBadRequest
	}
}

// maxRequestBytes caps the body of POST /v1/map and /v1/batch. The largest
// generated benchmark design (20 use-cases) encodes to about 200 KB, so the
// cap leaves ample room for real designs while refusing unbounded input at
// the boundary.
const maxRequestBytes = 16 << 20

// decodeBody decodes a JSON request body of at most maxRequestBytes into v.
// On failure it answers the request — 413 for an oversized body, 400 for
// malformed JSON — and returns false.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes)).Decode(v)
	if err == nil {
		return true
	}
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("request body exceeds the %d-byte (%d MiB) limit", tooLarge.Limit, tooLarge.Limit>>20))
		return false
	}
	writeError(w, http.StatusBadRequest, fmt.Errorf("decode request: %w", err))
	return false
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // headers already sent; nothing to report
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
