package service

import (
	"time"

	"nocmap/internal/metrics"
	"nocmap/internal/search"
	"nocmap/internal/store"
)

// startedAt is the process start (package-load) instant: the anchor of the
// /healthz uptime report and the noc_uptime_seconds gauge, which is how a
// load balancer or a human tells a fresh restart from a long-lived healthy
// daemon.
var startedAt = time.Now()

// Timings breaks one mapping run's wall clock into pipeline stages, in
// milliseconds: time spent waiting for a worker (zero for in-process SDK
// runs), pre-processing the use-cases, running the search engine, and
// summarizing/verifying the result. Total covers prepare through summarize.
// On a cache hit the response carries the original run's timings.
type Timings struct {
	QueueMS     float64 `json:"queue_ms,omitempty"`
	PrepareMS   float64 `json:"prepare_ms"`
	SearchMS    float64 `json:"search_ms"`
	SummarizeMS float64 `json:"summarize_ms"`
	TotalMS     float64 `json:"total_ms"`
}

// ms converts a duration for a Timings field.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// serviceMetrics is the service's registered instrument set. Counter writes
// are single atomic adds, so the job pipeline's hot path pays nothing
// measurable; the pool and cache gauges read live service state at scrape
// time under the service mutex.
type serviceMetrics struct {
	reg *metrics.Registry

	cacheHits      *metrics.Counter
	cacheMisses    *metrics.Counter
	cacheEvictions *metrics.Counter
	cacheUpgrades  *metrics.Counter
	dedupJoins     *metrics.Counter
	streamEvents   *metrics.Counter

	jobs          *metrics.CounterVec   // by terminal status: done | failed
	engineSeconds *metrics.HistogramVec // end-to-end engine-run latency by engine

	httpRequests *metrics.CounterVec   // by route and status
	httpSeconds  *metrics.HistogramVec // handler latency by route

	storeGets     *metrics.CounterVec // store reads by backend
	storePuts     *metrics.CounterVec // store writes (puts and upgrades) by backend
	storeUpgrades *metrics.CounterVec // in-place replace-with-better writes by backend
	storeErrors   *metrics.CounterVec // failed store operations by backend

	searchImprovements *metrics.CounterVec // incumbent improvements by engine
	searchMoves        *metrics.CounterVec // moves tried by engine
	searchAccepted     *metrics.CounterVec // moves accepted by engine
	searchRestarts     *metrics.CounterVec // shrink-probe restarts by engine
	searchExactBounds  *metrics.CounterVec // runs that finished with a proven-tight bound, by engine

	searchLowerBound *metrics.GaugeVec // latest lower bound (switches) by engine
	searchGap        *metrics.GaugeVec // latest optimality gap by engine
}

// newServiceMetrics registers the service's metric families on reg. The
// gauges close over s, so one registry backs at most one Service.
func newServiceMetrics(reg *metrics.Registry, s *Service) *serviceMetrics {
	m := &serviceMetrics{
		reg: reg,

		cacheHits:      reg.Counter("noc_cache_hits_total", "Requests answered from the result cache."),
		cacheMisses:    reg.Counter("noc_cache_misses_total", "Requests that started a new engine run."),
		cacheEvictions: reg.Counter("noc_cache_evictions_total", "Results evicted from the LRU result cache."),
		cacheUpgrades:  reg.Counter("noc_cache_upgrades_total", "Cache entries replaced in place by a strictly better result from a streamed run."),
		dedupJoins:     reg.Counter("noc_dedup_joins_total", "Requests that joined an identical in-flight run (single-flight)."),
		streamEvents:   reg.Counter("noc_stream_events_total", "Events published on job event logs (serve-then-improve streams)."),

		jobs: reg.CounterVec("noc_jobs_total", "Finished jobs by terminal status.", "status"),
		engineSeconds: reg.HistogramVec("noc_engine_duration_seconds",
			"End-to-end engine-run latency (prepare through summarize) by engine.", nil, "engine"),

		httpRequests: reg.CounterVec("noc_http_requests_total", "HTTP requests by route and status.", "route", "status"),
		httpSeconds: reg.HistogramVec("noc_http_request_duration_seconds",
			"HTTP handler latency by route.", nil, "route"),

		storeGets: reg.CounterVec("noc_store_gets_total",
			"Result-store reads by backend.", "backend"),
		storePuts: reg.CounterVec("noc_store_puts_total",
			"Result-store writes (puts and upgrade attempts) by backend.", "backend"),
		storeUpgrades: reg.CounterVec("noc_store_upgrades_total",
			"Result-store entries replaced in place by a strictly better result, by backend.", "backend"),
		storeErrors: reg.CounterVec("noc_store_errors_total",
			"Failed result-store operations by backend (each degrades to a cache miss).", "backend"),

		searchImprovements: reg.CounterVec("noc_search_improvements_total",
			"Strict incumbent improvements streamed by the engines.", "engine"),
		searchMoves: reg.CounterVec("noc_search_moves_total",
			"Annealing moves tried, from the engines' progress counters.", "engine"),
		searchAccepted: reg.CounterVec("noc_search_moves_accepted_total",
			"Annealing moves accepted, from the engines' progress counters.", "engine"),
		searchRestarts: reg.CounterVec("noc_search_restarts_total",
			"Random-restart placements probed on shrunk fabrics, by engine.", "engine"),
		searchExactBounds: reg.CounterVec("noc_search_exact_bounds_total",
			"Runs that finished with a proven-tight lower bound (the result is optimal in switch count), by engine.", "engine"),

		searchLowerBound: reg.GaugeVec("noc_search_lower_bound_switches",
			"Lower bound on the switch count of the latest finished run, by engine (seat bound, or the exact engine's branch-and-bound proof).", "engine"),
		searchGap: reg.GaugeVec("noc_search_optimality_gap",
			"Optimality gap (switches - bound) / bound of the latest finished run, by engine; 0 means the mapping attains the bound.", "engine"),
	}

	reg.GaugeFunc("noc_uptime_seconds", "Seconds since process start.",
		func() float64 { return time.Since(startedAt).Seconds() })
	reg.GaugeFunc("noc_workers", "Engine-run worker goroutines.",
		func() float64 { return float64(s.cfg.Workers) })
	reg.GaugeFunc("noc_queue_capacity", "Bounded job-queue capacity (backpressure beyond it).",
		func() float64 { return float64(s.cfg.QueueDepth) })
	reg.GaugeFunc("noc_queue_length", "Jobs waiting for a worker.",
		func() float64 { return float64(len(s.queue)) })
	reg.GaugeFunc("noc_jobs_running", "Jobs currently executing on a worker.",
		func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(s.running)
		})
	reg.GaugeFunc("noc_cache_entries", "Results resident in the result store (local tier).",
		func() float64 { return float64(s.store.Len()) })
	// Backend-specific instruments register only when the backend is
	// present, so a memory-backed daemon's exposition stays free of
	// always-zero disk and shard series.
	if d := diskTierOf(s.store); d != nil {
		reg.GaugeFunc("noc_store_disk_bytes", "Bytes of result objects resident in the disk store.",
			func() float64 { return float64(d.Bytes()) })
	}
	if sh, ok := s.store.(*store.Sharded); ok {
		reg.CounterFunc("noc_shard_forwards_total",
			"Result reads forwarded to the owning replica (consistent-hash misses).",
			sh.Forwards)
	}
	return m
}

// diskTierOf unwraps the disk tier of a store stack, looking through a
// shard layer, so the disk byte gauge stays visible however the store is
// composed. Nil when no disk tier is present.
func diskTierOf(st store.Store) *store.Disk {
	if sh, ok := st.(*store.Sharded); ok {
		st = sh.Local()
	}
	d, _ := st.(*store.Disk)
	return d
}

// progressTap wraps a job's progress callback so every engine event also
// feeds the search metrics: one improvement count per StageImproved, and the
// run's cumulative move/accept/restart totals folded in at StageDone (the
// portfolio's member annealers each emit their own StageDone, so a portfolio
// run's totals land under engine="anneal", where the work happened). The
// caller's own callback, when present, still runs after the tap.
func (m *serviceMetrics) progressTap(next func(search.Event)) func(search.Event) {
	return func(e search.Event) {
		switch e.Stage {
		case search.StageImproved:
			m.searchImprovements.WithLabelValues(e.Engine).Inc()
		case search.StageDone:
			m.searchMoves.WithLabelValues(e.Engine).Add(e.Moves)
			m.searchAccepted.WithLabelValues(e.Engine).Add(e.Accepted)
			m.searchRestarts.WithLabelValues(e.Engine).Add(e.Restarts)
			if e.LowerBound > 0 {
				m.searchLowerBound.WithLabelValues(e.Engine).Set(float64(e.LowerBound))
				m.searchGap.WithLabelValues(e.Engine).Set(e.Gap)
			}
			if e.BoundExact {
				m.searchExactBounds.WithLabelValues(e.Engine).Inc()
			}
		}
		if next != nil {
			next(e)
		}
	}
}
