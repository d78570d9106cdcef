// Package service is the serving layer of the toolkit: it turns the
// one-shot mapping library (pre-processing → search engine → verification)
// into a long-lived, concurrent mapping service. Three mechanisms carry the
// scaling load:
//
//   - Canonical design hashing. Every request is keyed by a deterministic
//     digest over the canonicalized design (traffic.Design.Digest), the
//     engine name, the architecture parameters and the search options, so
//     identical requests are recognized regardless of JSON field order or
//     use-case ordering.
//   - A result cache with single-flight deduplication. Results are kept in
//     an LRU keyed by that digest; while a key is being computed, every
//     further request for it waits on the in-flight job instead of starting
//     another engine run — N concurrent identical requests cost one run.
//   - A bounded worker pool. Engine runs execute on a fixed number of
//     workers behind a bounded queue (backpressure: asynchronous submissions
//     are rejected with ErrQueueFull when the queue is full, synchronous
//     ones block until there is room or their context expires). Every job
//     runs under its own context deadline and is queryable by ID through the
//     queued → running → done/failed lifecycle.
//
// The HTTP facade over this API lives in handler.go and is served by
// cmd/nocserved; cmd/nocmap -server delegates to it.
package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"strconv"
	"sync"
	"time"

	"nocmap/internal/area"
	"nocmap/internal/core"
	"nocmap/internal/metrics"
	"nocmap/internal/power"
	"nocmap/internal/search"
	"nocmap/internal/store"
	"nocmap/internal/traffic"
	"nocmap/internal/usecase"
	"nocmap/internal/verify"
)

// Errors the service reports to callers. The HTTP layer maps them to status
// codes (429, 503).
var (
	// ErrQueueFull is returned by Submit when the job queue is at capacity.
	ErrQueueFull = errors.New("service: job queue full")
	// ErrClosed is returned for requests arriving after Close.
	ErrClosed = errors.New("service: closed")
)

// Config sizes the service. The zero value is usable: Defaults fills in one
// worker per CPU, a 64-deep queue, a 128-entry cache and no job deadline.
type Config struct {
	// Workers is the number of concurrent engine runs (default: NumCPU).
	Workers int
	// QueueDepth bounds the jobs waiting for a worker (default 64).
	QueueDepth int
	// CacheEntries bounds the result LRU (default 128). It sizes the default
	// in-memory store; an explicit Store brings its own capacity.
	CacheEntries int
	// Store is the result store behind the cache. Nil means a process-local
	// in-memory LRU of CacheEntries entries (the pre-store behavior). A
	// disk-backed or sharded store (internal/store, assembled by pkg/noc's
	// OpenStore) makes results durable across restarts or shared across a
	// replica fleet. The service owns the store and closes it on Close.
	Store store.Store
	// DefaultTimeout is the per-job deadline applied when a request does not
	// carry its own; zero means no deadline.
	DefaultTimeout time.Duration
	// RetainJobs bounds how many finished jobs stay queryable by ID before
	// the oldest are forgotten (default 1024). The result cache is unaffected.
	RetainJobs int
	// Logger receives the service's structured request/job trail (slog).
	// Every line a request touches carries its request_id. Nil discards.
	Logger *slog.Logger
	// Metrics is the registry the service instruments (served at
	// GET /v1/metrics). Nil creates a private one, readable via
	// Service.Metrics. The service registers its families at construction,
	// so one registry backs at most one Service.
	Metrics *metrics.Registry
}

// Defaults returns cfg with every unset field filled in.
func (cfg Config) Defaults() Config {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.NumCPU()
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.CacheEntries <= 0 {
		cfg.CacheEntries = 128
	}
	if cfg.RetainJobs <= 0 {
		cfg.RetainJobs = 1024
	}
	return cfg
}

// Request is one mapping problem: a validated design plus the engine and
// parameters to solve it with.
type Request struct {
	Design *traffic.Design
	// Engine names a registered search engine (search.Names).
	Engine string
	// Params are the NoC architecture parameters.
	Params core.Params
	// Opts tune the search engines.
	Opts search.Options
	// Timeout overrides the service's default per-job deadline when positive.
	Timeout time.Duration
	// RequestID tags the request for tracing: it is stamped into the job
	// record and every log line the request produces. It never affects Key —
	// identical problems still share one cache entry and one flight
	// regardless of who asked.
	RequestID string
}

// Key returns the canonical cache key of the request: a SHA-256 digest over
// the design digest, the engine name, and every result-affecting parameter
// and option, written field by field (no struct printing, so the key is
// stable across Go versions and immune to unexported fields).
//
// Options that cannot affect the result are normalized away before hashing
// so they cannot cause spurious cache misses: Workers is pure scheduling
// concurrency (every engine is documented scheduling-independent), and the
// deterministic greedy engine ignores the stochastic options entirely, so
// for it they all hash as zero. Every other engine — including ones added
// via search.Register — hashes every remaining option, since the service
// cannot know which of them the engine reads.
func (r *Request) Key() (string, error) {
	if r.Design == nil {
		return "", fmt.Errorf("service: request has no design")
	}
	if _, err := search.New(r.Engine); err != nil {
		return "", err
	}
	if err := r.Params.Validate(); err != nil {
		return "", err
	}
	if err := r.Opts.Validate(); err != nil {
		return "", err
	}
	h := sha256.New()
	fmt.Fprintf(h, "nocmap-request-v1\ndesign %s\nengine %s\n", r.Design.Digest(), r.Engine)
	p := r.Params
	fmt.Fprintf(h, "params %d %s %d %d %d %d %d %s %s %s %d %d %t %t %t %d\n",
		p.LinkWidthBits, hexf(p.FreqMHz), p.SlotTableSize, p.SlotCycles,
		p.NIsPerSwitch, p.CoresPerNI, p.MaxMeshDim, p.Topology.CanonicalID(),
		hexf(p.Cost.HopCost), hexf(p.Cost.LoadWeight), p.Cost.MaxCandidates,
		p.PlacementCandidates, p.DisableMappedPreference, p.DisableUnifiedSlots,
		p.Improve, p.ImproveIters)
	o := r.Opts
	o.Workers = 0
	if r.Engine == "greedy" {
		o = search.Options{}
	}
	fmt.Fprintf(h, "opts %d %d %d %d %d %d %d %d %d %s %s %s\n",
		o.Seed, o.Seeds, int64(o.Budget), o.Workers, o.Iters, o.Restarts,
		o.Population, o.Generations, o.Nodes,
		hexf(o.Weights.SwitchCount), hexf(o.Weights.MeanHops), hexf(o.Weights.MaxUtil))
	return hex.EncodeToString(h.Sum(nil)), nil
}

func hexf(f float64) string { return strconv.FormatFloat(f, 'x', -1, 64) }

// State is a job's position in its lifecycle.
type State string

// Job lifecycle states.
const (
	StateQueued  State = "queued"
	StateRunning State = "running"
	StateDone    State = "done"
	StateFailed  State = "failed"
)

// Job is one engine run owned by the pool. All fields except ID and Key are
// guarded by the service mutex; callers observe jobs through JobStatus
// snapshots.
type Job struct {
	ID  string
	Key string
	// RequestID is the tracing ID of the request that created the job
	// (joiners of an in-flight run keep their own IDs in their own logs).
	RequestID string

	req      Request
	state    State
	err      error
	resp     *Response
	done     chan struct{}
	enqueued time.Time
	started  time.Time
	finished time.Time

	// streamed marks a serve-then-improve job: the greedy result was served
	// at admission and interim incumbents upgrade the cache in place.
	streamed bool
	// prep is the prepared design, kept on streamed jobs so interim
	// incumbents can be summarized without re-preparing.
	prep *usecase.Prepared
	// stream is the job's append-only event log (every job has one; only
	// streamed jobs receive interim events before the final one).
	stream *jobStream
}

// JobStatus is an immutable snapshot of a job, safe to serialize.
type JobStatus struct {
	ID  string `json:"id"`
	Key string `json:"key"`
	// RequestID traces the job back to the HTTP request that created it.
	RequestID string `json:"request_id,omitempty"`
	State     State  `json:"state"`
	// Error is set when State is failed.
	Error string `json:"error,omitempty"`
	// Result is set when State is done; on a running streamed job it is the
	// best incumbent published so far (the anytime answer).
	Result *Response `json:"result,omitempty"`
	// ElapsedMS is the run time so far (running) or total (finished).
	ElapsedMS int64 `json:"elapsed_ms"`
	// Stream marks a serve-then-improve job whose incumbent improvements
	// are published on GET /v1/jobs/{id}/events.
	Stream bool `json:"stream,omitempty"`
	// LastSeq is the sequence number of the job's latest stream event.
	LastSeq int64 `json:"last_seq,omitempty"`
}

// Stats exposes the cache and pool gauges served at /v1/stats. The same
// signals, plus histograms and per-engine breakdowns, are exposed in
// Prometheus form at /v1/metrics.
type Stats struct {
	CacheHits      int64 `json:"cache_hits"`
	CacheMisses    int64 `json:"cache_misses"`
	CacheEvictions int64 `json:"cache_evictions"`
	// StoreBackend names the result-store backend serving this process:
	// "memory", "disk" or "sharded".
	StoreBackend string `json:"store_backend"`
	// StoreEntries is the resident entry count of the result store (the
	// local tier for a sharded store).
	StoreEntries int `json:"store_entries"`
	// Deduped counts requests that joined an in-flight identical run instead
	// of starting their own.
	Deduped     int64 `json:"deduped"`
	JobsDone    int64 `json:"jobs_done"`
	JobsFailed  int64 `json:"jobs_failed"`
	JobsRunning int   `json:"jobs_running"`
	QueueLen    int   `json:"queue_len"`
	QueueDepth  int   `json:"queue_depth"`
	Workers     int   `json:"workers"`
}

// Service is a concurrent mapping service; create one with New and release
// it with Close.
type Service struct {
	cfg   Config
	queue chan *Job
	quit  chan struct{}
	wg    sync.WaitGroup
	// admits tracks admissions between job registration and the enqueue
	// attempt resolving, so Close can wait for every in-flight sender
	// before draining the queue.
	admits sync.WaitGroup

	log *slog.Logger
	met *serviceMetrics

	// store holds finished results keyed by request digest. It is
	// self-locking and is never called with s.mu held: the disk and sharded
	// backends do file and network I/O that must not serialize admission.
	store store.Store

	mu       sync.Mutex
	closed   bool
	nextID   int64
	jobs     map[string]*Job
	jobOrder []string // finished job IDs, oldest first, for retention
	flight   map[string]*Job

	hits, misses, evictions, deduped, jobsDone, jobsFailed int64
	running                                                int
}

// New starts a service with cfg.Workers pool workers.
func New(cfg Config) *Service {
	cfg = cfg.Defaults()
	s := &Service{
		cfg:    cfg,
		queue:  make(chan *Job, cfg.QueueDepth),
		quit:   make(chan struct{}),
		jobs:   make(map[string]*Job),
		flight: make(map[string]*Job),
		store:  cfg.Store,
		log:    cfg.Logger,
	}
	if s.store == nil {
		s.store = store.NewMemory(cfg.CacheEntries)
	}
	if s.log == nil {
		s.log = slog.New(slog.DiscardHandler)
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	s.met = newServiceMetrics(reg, s)
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Metrics returns the registry the service instruments; the HTTP facade
// serves it at GET /v1/metrics.
func (s *Service) Metrics() *metrics.Registry { return s.met.reg }

// Close stops the workers and fails every job still waiting in the queue.
// In-flight runs finish; Close returns after the pool is drained.
func (s *Service) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	close(s.quit)
	// Order matters: first every in-flight admission resolves (enqueues or
	// abandons — quit guarantees none stays blocked), then the workers
	// drain out, and only then is the queue provably quiescent to drain.
	s.admits.Wait()
	s.wg.Wait()
	for {
		select {
		case j := <-s.queue:
			s.finish(j, nil, ErrClosed, false)
		default:
			// The pool is quiescent; release the store last so every
			// finished job's result reached it (a disk store syncs its
			// index here).
			if err := s.store.Close(); err != nil {
				s.log.Warn("store close failed", "backend", s.store.Backend(), "error", err)
			}
			return
		}
	}
}

// Map resolves the request synchronously: a cache hit returns immediately,
// an identical in-flight run is joined, and otherwise the request is
// enqueued (blocking for queue room) and awaited. The context bounds only
// the caller's wait — a run that outlives its caller still completes and
// populates the cache.
func (s *Service) Map(ctx context.Context, req Request) (*Response, error) {
	j, resp, err := s.admit(ctx, req, true)
	if err != nil || resp != nil {
		return resp, err
	}
	select {
	case <-j.done:
		return s.outcome(j)
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Submit resolves the request asynchronously and returns a job ID to poll.
// A cache hit yields an already-done job; joining an in-flight run returns
// that run's ID. A full queue is reported as ErrQueueFull — the service's
// backpressure signal.
func (s *Service) Submit(req Request) (string, error) {
	j, _, err := s.admit(context.Background(), req, false)
	if err != nil {
		return "", err
	}
	return j.ID, nil
}

// admit implements the shared front door: store lookup, single-flight join,
// then enqueue. When sync is true a full queue blocks (bounded by ctx)
// instead of failing; the returned Response is non-nil only on a cache hit.
//
// The store read runs outside the service mutex — a disk or sharded
// backend pays file or network latency there, which must not serialize
// every other request — so the flight table is re-checked under the lock
// afterwards: of N concurrent identical misses exactly one registers the
// flight (one miss), the rest join it (deduped), same as when one lock
// covered both.
func (s *Service) admit(ctx context.Context, req Request, sync bool) (*Job, *Response, error) {
	key, err := req.Key()
	if err != nil {
		return nil, nil, err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, nil, ErrClosed
	}
	s.mu.Unlock()
	if resp, ok := s.storeGet(ctx, key); ok {
		s.mu.Lock()
		s.hits++
		s.met.cacheHits.Inc()
		if sync {
			s.mu.Unlock()
			s.log.Debug("cache hit", "request_id", req.RequestID, "key", key, "engine", req.Engine)
			return nil, resp.cached(), nil
		}
		// Async callers poll a job either way; synthesize a done one.
		j := s.newJobLocked(key, req)
		j.state = StateDone
		j.resp = resp.cached()
		j.finished = time.Now()
		close(j.done)
		s.retainLocked(j)
		s.appendEvent(j, StreamEvent{Stage: StreamDone, Engine: req.Engine,
			Cost: costOfResult(j.resp.Result, req.Opts.Weights), Response: j.resp, Final: true})
		s.mu.Unlock()
		s.log.Debug("cache hit", "request_id", req.RequestID, "key", key, "engine", req.Engine, "job", j.ID)
		return j, nil, nil
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, nil, ErrClosed
	}
	if j, ok := s.flight[key]; ok {
		s.deduped++
		s.met.dedupJoins.Inc()
		s.mu.Unlock()
		s.log.Debug("joined in-flight run", "request_id", req.RequestID, "key", key, "job", j.ID)
		return j, nil, nil
	}
	s.misses++
	s.met.cacheMisses.Inc()
	j := s.newJobLocked(key, req)
	s.flight[key] = j
	s.admits.Add(1)
	s.mu.Unlock()
	defer s.admits.Done()
	// Admitted: the job owns the flight for its key; the enqueue attempt
	// below may still fail (backpressure), which finish() logs as a failure.
	s.log.Info("job admitted", "request_id", req.RequestID, "job", j.ID, "key", key, "engine", req.Engine)

	if sync {
		select {
		case s.queue <- j:
			return j, nil, nil
		case <-ctx.Done():
			s.abandon(j, ctx.Err())
			return nil, nil, ctx.Err()
		case <-s.quit:
			s.abandon(j, ErrClosed)
			return nil, nil, ErrClosed
		}
	}
	select {
	case s.queue <- j:
		return j, nil, nil
	default:
		s.abandon(j, ErrQueueFull)
		return nil, nil, ErrQueueFull
	}
}

func (s *Service) newJobLocked(key string, req Request) *Job {
	s.nextID++
	j := &Job{
		ID:        "j" + strconv.FormatInt(s.nextID, 10),
		Key:       key,
		RequestID: req.RequestID,
		req:       req,
		state:     StateQueued,
		done:      make(chan struct{}),
		enqueued:  time.Now(),
		stream:    newJobStream(),
	}
	s.jobs[j.ID] = j
	return j
}

// abandon fails a job that never made it into the queue. Identical requests
// may already have joined its flight between registration and the failed
// enqueue, so the job must be finished — waking every joiner with the
// admission error — not silently deleted, or those joiners would wait on
// j.done forever.
func (s *Service) abandon(j *Job, err error) {
	s.finish(j, nil, err, false)
}

// Job returns a snapshot of the job, if it is still retained.
func (s *Service) Job(id string) (JobStatus, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobStatus{}, false
	}
	st := JobStatus{ID: j.ID, Key: j.Key, RequestID: j.RequestID, State: j.state,
		Result: j.resp, Stream: j.streamed, LastSeq: j.stream.lastSeq()}
	if st.Result == nil && j.streamed {
		// A running streamed job already has an answer: its best incumbent.
		st.Result = j.stream.latest()
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	switch {
	case !j.finished.IsZero():
		st.ElapsedMS = j.finished.Sub(j.enqueued).Milliseconds()
	default:
		st.ElapsedMS = time.Since(j.enqueued).Milliseconds()
	}
	return st, true
}

// BatchItem is one outcome of MapBatch, in request order.
type BatchItem struct {
	Response *Response
	Err      error
}

// MapBatch maps every request on the shared pool and returns when all are
// resolved. Identical requests inside one batch (or racing other callers)
// collapse to one engine run via the same single-flight path as Map.
func (s *Service) MapBatch(ctx context.Context, reqs []Request) []BatchItem {
	out := make([]BatchItem, len(reqs))
	var wg sync.WaitGroup
	for i := range reqs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := s.Map(ctx, reqs[i])
			out[i] = BatchItem{Response: resp, Err: err}
		}(i)
	}
	wg.Wait()
	return out
}

// Stats returns the current counters and gauges.
func (s *Service) Stats() Stats {
	entries := s.store.Len() // self-locking; read outside s.mu
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		CacheHits:      s.hits,
		CacheMisses:    s.misses,
		CacheEvictions: s.evictions,
		StoreBackend:   s.store.Backend(),
		StoreEntries:   entries,
		Deduped:        s.deduped,
		JobsDone:       s.jobsDone,
		JobsFailed:     s.jobsFailed,
		JobsRunning:    s.running,
		QueueLen:       len(s.queue),
		QueueDepth:     s.cfg.QueueDepth,
		Workers:        s.cfg.Workers,
	}
}

func (s *Service) worker() {
	defer s.wg.Done()
	for {
		select {
		case j := <-s.queue:
			s.run(j)
		case <-s.quit:
			return
		}
	}
}

// run executes one job under its deadline and publishes the outcome. It is
// where the per-engine latency histogram is fed and where the engines'
// progress events are tapped into the search metrics.
func (s *Service) run(j *Job) {
	s.mu.Lock()
	j.state = StateRunning
	j.started = time.Now()
	s.running++
	s.mu.Unlock()
	s.log.Debug("job started", "request_id", j.RequestID, "job", j.ID,
		"engine", j.req.Engine, "queue_ms", ms(j.started.Sub(j.enqueued)))

	ctx := context.Background()
	timeout := j.req.Timeout
	if timeout <= 0 {
		timeout = s.cfg.DefaultTimeout
	}
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	req := j.req
	if j.streamed {
		// Streamed jobs publish every strict job-level incumbent improvement
		// on their event log as it lands (and upgrade the cache in place).
		req.Opts.Progress = s.streamTap(j)
	}
	req.Opts.Progress = s.met.progressTap(req.Opts.Progress)
	resp, tm, err := solve(ctx, req)
	if j.streamed && err != nil && isExpiry(err) {
		// A streamed job's deadline expiring is not a failure: the stream
		// already served its incumbents, and the engines return their best
		// so far on context expiry — solve only reports the expiry when the
		// run died before producing even the greedy base. Fall back to the
		// best streamed incumbent so the job finishes done, not failed.
		if latest := j.stream.latest(); latest != nil {
			c := *latest // copy: the streamed pointer is shared with readers
			resp, err = &c, nil
		}
	}
	s.met.engineSeconds.WithLabelValues(req.Engine).Observe(tm.TotalMS / 1e3)
	if resp != nil {
		tm.QueueMS = ms(j.started.Sub(j.enqueued))
		resp.Timings = &tm
	}
	s.finish(j, resp, err, true)
}

// finish publishes a job outcome: store insert on success (a CAS upgrade
// for streamed jobs, whose interim incumbents already live in the store),
// state flip, flight removal, the final event on the job's stream, waiter
// wakeup, retention bookkeeping. ran is false for jobs drained at Close
// that never reached a worker.
//
// The store write happens before the state flip and before waiters wake,
// so a caller released by j.done always finds the result resident; it runs
// outside the service mutex (a disk store fsyncs here), which is safe
// because the flight entry is still registered — identical requests join
// the job rather than recompute.
func (s *Service) finish(j *Job, resp *Response, err error, ran bool) {
	var cost float64
	if err == nil {
		cost = costOfResult(resp.Result, j.req.Opts.Weights)
		if j.streamed {
			// The stream already installed interim incumbents; the final
			// result replaces them unless a concurrent writer did better.
			s.storeUpgrade(j.Key, resp, cost)
		} else {
			s.storePut(j.Key, resp, cost)
		}
	}
	s.mu.Lock()
	if ran {
		s.running--
	}
	if err != nil {
		j.state = StateFailed
		j.err = err
		s.jobsFailed++
		s.met.jobs.WithLabelValues(string(StateFailed)).Inc()
		s.appendEvent(j, StreamEvent{Stage: StreamFailed, Engine: j.req.Engine, Error: err.Error(), Final: true})
	} else {
		j.state = StateDone
		j.resp = resp
		s.jobsDone++
		s.met.jobs.WithLabelValues(string(StateDone)).Inc()
		s.appendEvent(j, StreamEvent{Stage: StreamDone, Engine: j.req.Engine, Cost: cost, Response: resp, Final: true})
	}
	j.finished = time.Now()
	delete(s.flight, j.Key)
	s.retainLocked(j)
	s.mu.Unlock()
	if err != nil {
		s.log.Info("job failed", "request_id", j.RequestID, "job", j.ID,
			"engine", j.req.Engine, "elapsed_ms", ms(j.finished.Sub(j.enqueued)), "error", err)
	} else {
		attrs := []any{"request_id", j.RequestID, "job", j.ID, "engine", j.req.Engine,
			"elapsed_ms", ms(j.finished.Sub(j.enqueued)), "cache_write", true}
		if tm := resp.Timings; tm != nil {
			attrs = append(attrs, "queue_ms", tm.QueueMS, "prepare_ms", tm.PrepareMS,
				"search_ms", tm.SearchMS, "summarize_ms", tm.SummarizeMS)
		}
		s.log.Info("job done", attrs...)
	}
	close(j.done)
}

// retainLocked records a finished job and evicts the oldest beyond the
// retention bound.
func (s *Service) retainLocked(j *Job) {
	s.jobOrder = append(s.jobOrder, j.ID)
	for len(s.jobOrder) > s.cfg.RetainJobs {
		delete(s.jobs, s.jobOrder[0])
		s.jobOrder = s.jobOrder[1:]
	}
}

// outcome reads a finished job's result.
func (s *Service) outcome(j *Job) (*Response, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j.err != nil {
		return nil, j.err
	}
	return j.resp, nil
}

// solve runs the full pipeline for one request: pre-process, search, verify,
// summarize. It is deliberately free of service state — the pure function
// the pool executes — and reports where the wall clock went, stage by stage,
// even on failure (so a timeout shows which stage ate the budget).
func solve(ctx context.Context, req Request) (_ *Response, tm Timings, _ error) {
	start := time.Now()
	defer func() { tm.TotalMS = ms(time.Since(start)) }()
	eng, err := search.New(req.Engine)
	if err != nil {
		return nil, tm, err
	}
	prep, err := usecase.Prepare(req.Design)
	tm.PrepareMS = ms(time.Since(start))
	if err != nil {
		return nil, tm, err
	}
	searchStart := time.Now()
	res, err := eng.Search(ctx, prep, req.Design.NumCores(), req.Params, req.Opts)
	tm.SearchMS = ms(time.Since(searchStart))
	if err != nil {
		return nil, tm, err
	}
	sumStart := time.Now()
	resp := summarize(req, prep, res)
	tm.SummarizeMS = ms(time.Since(sumStart))
	return resp, tm, nil
}

// Response is the service's result envelope. Cached marks a cache hit; the
// Result payload of a hit is byte-identical to the original run's (the
// determinism the cache-hit tests assert).
type Response struct {
	Key    string `json:"key"`
	Engine string `json:"engine"`
	Cached bool   `json:"cached"`
	// Timings breaks the producing run's wall clock into pipeline stages; a
	// cache hit reports the original run's timings (the envelope says
	// Cached, so a 2ms hit on a 30s anneal stays interpretable).
	Timings *Timings `json:"timings,omitempty"`
	Result  Result   `json:"result"`
}

// cached returns a copy marked as a cache hit.
func (r *Response) cached() *Response {
	c := *r
	c.Cached = true
	return &c
}

// Result is the JSON-serializable summary of one mapping.
type Result struct {
	Design string `json:"design"`
	// Topology names the fabric family of the solution ("mesh", "torus",
	// "custom"). A torus request can legitimately report "mesh" when the
	// smallest feasible shape is below 3x3, where wrap links degenerate.
	Topology string `json:"topology"`
	Rows     int    `json:"rows"`
	Cols     int    `json:"cols"`
	Switches int    `json:"switches"`

	MaxLinkUtil   float64 `json:"max_link_util"`
	AvgMeshHops   float64 `json:"avg_mesh_hops"`
	SlotsReserved int     `json:"slots_reserved"`

	// LowerBoundSwitches is a provable lower bound on the switch count of any
	// feasible mapping of this design under these parameters. BoundSource says
	// where it came from: "seats" (NI seat capacity — always available) or
	// "bnb" (the exact engine's branch-and-bound proof, carried on its
	// result). OptimalityGap is (switches - bound) / bound; BoundExact marks
	// the bound proven tight, i.e. the mapping is optimal in switch count.
	LowerBoundSwitches int     `json:"lower_bound_switches"`
	OptimalityGap      float64 `json:"optimality_gap"`
	BoundSource        string  `json:"bound_source"`
	BoundExact         bool    `json:"bound_exact,omitempty"`

	AreaMM2 float64 `json:"area_mm2"`
	PowerMW float64 `json:"power_mw"`

	// CoreSwitch and CoreNI give the shared placement (-1 = unattached).
	CoreSwitch []int `json:"core_switch"`
	CoreNI     []int `json:"core_ni"`

	UseCases []UseCaseResult `json:"use_cases"`

	// Violations lists analytic verification failures; empty means every
	// invariant holds.
	Violations []string `json:"violations,omitempty"`
}

// UseCaseResult summarizes one use-case of the mapped design.
type UseCaseResult struct {
	Name     string `json:"name"`
	Compound bool   `json:"compound,omitempty"`
	Flows    int    `json:"flows"`
	Group    int    `json:"group"`
}

// summarize flattens an engine result into the wire form.
func summarize(req Request, prep *usecase.Prepared, res *core.Result) *Response {
	key, _ := req.Key() // validated at admission; cannot fail here
	return &Response{Key: key, Engine: req.Engine, Result: SummarizeResult(req.Design.Name, prep, res)}
}

// SummarizeResult flattens an engine result into the stable wire Result:
// fabric shape, load statistics, area/power estimates, placement, use-case
// roster and analytic verification verdicts. The SDK (pkg/noc) uses the same
// summary for local runs, so a design mapped in-process and the same design
// mapped through the service encode identically.
func SummarizeResult(designName string, prep *usecase.Prepared, res *core.Result) Result {
	m := res.Mapping
	lb, exact := search.BoundOf(res)
	source := "seats"
	if res.LowerBoundSwitches > 0 {
		source = "bnb"
	}
	out := Result{
		Design:        designName,
		Topology:      m.Topology.Kind.String(),
		Rows:          m.Topology.Rows,
		Cols:          m.Topology.Cols,
		Switches:      m.SwitchCount(),
		MaxLinkUtil:   res.Stats.MaxLinkUtil,
		AvgMeshHops:   res.Stats.AvgMeshHops,
		SlotsReserved: res.Stats.SlotsReserved,

		LowerBoundSwitches: lb,
		OptimalityGap:      search.Gap(m.SwitchCount(), lb),
		BoundSource:        source,
		BoundExact:         exact,
		AreaMM2:            area.DefaultModel().NoCMM2(m),
		PowerMW:            power.Watts(m.SwitchCount(), m.Params.FreqMHz) * 1000,
		CoreSwitch:         append([]int(nil), m.CoreSwitch...),
		CoreNI:             append([]int(nil), m.CoreNI...),
	}
	for i, u := range prep.UseCases {
		out.UseCases = append(out.UseCases, UseCaseResult{
			Name: u.Name, Compound: u.Compound, Flows: len(u.Flows), Group: prep.GroupOf[i],
		})
	}
	for _, v := range verify.Check(m) {
		out.Violations = append(out.Violations, v.String())
	}
	return out
}
