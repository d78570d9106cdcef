package search

import (
	"sync"

	"nocmap/internal/core"
)

// Stage identifies what a progress Event reports.
type Stage string

// Progress stages, in the order one engine run emits them.
const (
	// StageMapped announces the constructive base mapping an improvement
	// engine starts from (the greedy result, or a feasible placement found on
	// a probed smaller fabric).
	StageMapped Stage = "mapped"
	// StageImproved announces a new best-so-far under the cost weights.
	// Every strict improvement of an annealer's incumbent emits exactly one
	// event with this stage.
	StageImproved Stage = "improved"
	// StageDone announces the engine's final result.
	StageDone Stage = "done"
)

// Event is one progress notification from a running engine. Options.Progress
// receives events synchronously from the goroutine performing the search;
// the portfolio serializes its members' callbacks, so a callback never runs
// concurrently with itself.
type Event struct {
	// Engine names the emitting engine ("greedy", "anneal", "portfolio").
	// Portfolio members report as "anneal" with their derived Seed, followed
	// by one final "portfolio" StageDone event for the pool's winner.
	Engine string `json:"engine"`
	Stage  Stage  `json:"stage"`
	// Seed is the PRNG seed of the emitting annealer (0 for deterministic
	// engines), distinguishing portfolio members.
	Seed int64 `json:"seed,omitempty"`
	// Switches and Dim describe the candidate's fabric size.
	Switches int    `json:"switches"`
	Dim      string `json:"dim"`
	// Cost is the candidate's score under the configured cost weights
	// (lower is better).
	Cost float64 `json:"cost"`
	// LowerBound is a provable lower bound on the switch count of any
	// feasible mapping of the design: the exact engine's branch-and-bound
	// bound when the result carries one, otherwise the seat bound (every
	// attached core needs an NI seat). Always at least 1 on events carrying
	// a result.
	LowerBound int `json:"lower_bound,omitempty"`
	// Gap is the relative optimality gap of the candidate,
	// (Switches - LowerBound) / LowerBound. Zero means the candidate is
	// proven optimal in switch count when the bound is exact, or merely
	// matches the weak seat bound otherwise.
	Gap float64 `json:"gap"`
	// BoundExact reports that LowerBound came from a completed exact search
	// rather than the seat heuristic.
	BoundExact bool `json:"bound_exact,omitempty"`
	// Stats are the candidate's load statistics.
	Stats core.Stats `json:"stats"`
	// Counts are the emitting engine's cumulative search-effort counters at
	// the time of the event; deterministic engines report zeros. They ride
	// on the events so observers (the service's metrics layer, the CLI) see
	// search effort without any engine-side hook beyond this plumbing.
	Counts

	// Result is the engine's incumbent snapshot at the event: a fully
	// materialized result, safe to retain past the callback (the annealer's
	// Session.Result copies every reservation out of the session's recycled
	// buffers). It never serializes — wire consumers receive the summarized
	// form — and is what lets the mapping service turn progress events into
	// servable anytime results.
	Result *core.Result `json:"-"`
}

// Counts are cumulative search-effort counters for one engine run: candidate
// placements evaluated (Moves), candidates kept by the acceptance rule
// (Accepted), and random-restart placements probed on shrunk fabrics
// (Restarts).
type Counts struct {
	Moves    int64 `json:"moves,omitempty"`
	Accepted int64 `json:"accepted,omitempty"`
	Restarts int64 `json:"restarts,omitempty"`
}

// emit delivers an event for the given result when a progress callback is
// configured.
func (o Options) emit(engine string, stage Stage, r *core.Result) {
	o.Emit(engine, stage, r, Counts{})
}

// emitCounts is emit with the engine's cumulative effort counters attached.
func (o Options) emitCounts(engine string, stage Stage, r *core.Result, c Counts) {
	o.Emit(engine, stage, r, c)
}

// Emit delivers a progress event for the given result with the engine's
// cumulative effort counters attached; a nil callback or result is a no-op.
// It is exported for engine implementations outside this package (the
// population and exact subpackages), which must report through the same
// event stream the in-package engines use.
func (o Options) Emit(engine string, stage Stage, r *core.Result, c Counts) {
	if o.Progress == nil || r == nil {
		return
	}
	lb, exact := BoundOf(r)
	o.Progress(Event{
		Engine:     engine,
		Stage:      stage,
		Seed:       o.Seed,
		Switches:   r.Mapping.SwitchCount(),
		Dim:        r.Dim().String(),
		Cost:       o.Weights.Of(r),
		LowerBound: lb,
		Gap:        Gap(r.Mapping.SwitchCount(), lb),
		BoundExact: exact,
		Stats:      r.Stats,
		Counts:     c,
		Result:     r,
	})
}

// BoundOf resolves the switch-count lower bound a result reports: the exact
// engine's branch-and-bound bound when the result carries one, otherwise
// the mapping's seat bound. The second return reports whether the bound is
// exact (proven tight by a completed exact search).
func BoundOf(r *core.Result) (lb int, exact bool) {
	if r.LowerBoundSwitches > 0 {
		return r.LowerBoundSwitches, r.LowerBoundExact
	}
	return r.Mapping.SeatLowerBound(), false
}

// Gap is the relative optimality gap of a candidate with the given switch
// count against a lower bound: (switches - lb) / lb, clamped at zero. A
// non-positive bound yields zero (no meaningful gap).
func Gap(switches, lb int) float64 {
	if lb <= 0 || switches <= lb {
		return 0
	}
	return float64(switches-lb) / float64(lb)
}

// serializedProgress wraps a progress callback so concurrent emitters (the
// portfolio's worker pool) never run it in parallel. A nil callback wraps to
// nil, keeping the fast no-progress path allocation-free.
func serializedProgress(fn func(Event)) func(Event) {
	if fn == nil {
		return nil
	}
	var mu sync.Mutex
	return func(e Event) {
		mu.Lock()
		defer mu.Unlock()
		fn(e)
	}
}
