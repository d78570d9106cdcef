// Package search is the pluggable mapping-optimizer subsystem. The paper's
// Phase 2 heuristic (internal/core) is one-shot and greedy; related work on
// mesh mapping shows metaheuristics routinely find smaller or better-loaded
// networks from the same inputs. This package defines a common Engine
// interface over the prepared use-cases, a unified cost model on top of
// core.Stats, and three engines:
//
//   - greedy:    the paper's Algorithm 2, unchanged (core.Map).
//   - anneal:    simulated annealing over core placements, re-routing and
//     re-reserving slots for the moved cores' flows via core.Session,
//     including attempts to shrink below the greedy mesh size.
//   - portfolio: a parallel multi-start portfolio that races the greedy
//     engine against N deterministically-seeded annealers under a shared
//     context and wall-clock budget and returns the best feasible result.
//
// The population subpackage registers three metaheuristic engines over the
// same encoding (ga, pso, abc), and the exact subpackage registers a
// branch-and-bound engine that computes provable switch-count lower bounds
// on small designs. Every future strategy plugs in by registering another
// Engine.
package search

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"nocmap/internal/core"
	"nocmap/internal/usecase"
)

// Engine is one mapping strategy. Search returns the best mapping the
// strategy found, or an error when it found none (infeasible design,
// cancelled context before any solution).
type Engine interface {
	Name() string
	Search(ctx context.Context, prep *usecase.Prepared, numCores int,
		p core.Params, opts Options) (*core.Result, error)
}

// Options tune the search engines. The zero value is not useful; start from
// DefaultOptions.
type Options struct {
	// Seed is the base PRNG seed. Every derived seed (multi-start annealers)
	// is a deterministic function of it, so a fixed Seed reproduces the run.
	Seed int64
	// Seeds is the number of multi-start annealers the portfolio launches in
	// addition to the greedy engine.
	Seeds int
	// Budget bounds the wall-clock time of the improvement phase of one
	// Search call; zero means unbounded. Engines return their best-so-far
	// when the budget expires. The constructive greedy base always runs to
	// completion (a truncated constructive pass has nothing to return), so
	// a budgeted anneal/portfolio degrades to the greedy result, never to
	// an error; only external context cancellation aborts outright.
	Budget time.Duration
	// Workers caps the goroutines of the portfolio pool (default: one per
	// job).
	Workers int
	// Iters is the number of annealing moves per start.
	Iters int
	// Restarts is how many random placements the annealer tries per
	// smaller-than-greedy mesh size when probing for a feasible start.
	Restarts int
	// Population is the number of candidate placements the population-based
	// engines (ga, pso, abc) carry per generation. Zero means the engine
	// default (16).
	Population int
	// Generations is the number of evolution rounds the population-based
	// engines run per fabric. Zero means the engine default (24).
	Generations int
	// Nodes bounds the exact branch-and-bound engine's search effort in
	// weighted node units (an internal tree node costs 1 unit, a leaf
	// evaluation 100). Zero means the engine default (500000). The bound the
	// engine reports is provable at whatever depth the budget allowed.
	Nodes int
	// Weights score candidate mappings.
	Weights CostWeights
	// Progress, when set, receives streaming events while the search runs:
	// the constructive base (StageMapped), every strict improvement of an
	// annealer's incumbent (StageImproved), and the final result (StageDone).
	// The callback runs synchronously on the searching goroutine and is
	// never invoked concurrently with itself — the portfolio serializes its
	// members — so a slow callback slows the search. Progress does not
	// affect the result and is excluded from service cache keys.
	Progress func(Event)

	// base, when set, is a precomputed greedy result the annealer starts
	// from instead of running core.Map itself. The portfolio uses it to run
	// the deterministic greedy pass once for all members.
	base *core.Result
	// evals, when set, is a shared per-topology evaluator cache. The
	// portfolio hands one cache to all its annealers so the design tables
	// and each topology's candidate-path table are built once across the
	// whole pool.
	evals *EvalCache
}

// DefaultOptions returns the evaluation defaults: a modest annealing length
// that keeps D1-class designs interactive, four portfolio seeds, no budget.
func DefaultOptions() Options {
	return Options{
		Seed:     1,
		Seeds:    4,
		Iters:    120,
		Restarts: 3,
		Weights:  DefaultCostWeights(),
	}
}

// Validate rejects nonsensical option combinations.
func (o Options) Validate() error {
	switch {
	case o.Seeds < 0:
		return fmt.Errorf("search: seeds %d invalid", o.Seeds)
	case o.Iters < 0:
		return fmt.Errorf("search: iters %d invalid", o.Iters)
	case o.Restarts < 0:
		return fmt.Errorf("search: restarts %d invalid", o.Restarts)
	case o.Budget < 0:
		return fmt.Errorf("search: budget %v invalid", o.Budget)
	case o.Workers < 0:
		return fmt.Errorf("search: workers %d invalid", o.Workers)
	case o.Population < 0:
		return fmt.Errorf("search: population %d invalid", o.Population)
	case o.Generations < 0:
		return fmt.Errorf("search: generations %d invalid", o.Generations)
	case o.Nodes < 0:
		return fmt.Errorf("search: node budget %d invalid", o.Nodes)
	}
	return nil
}

// CostWeights combine the paper's size metric with the load statistics of
// core.Stats into one scalar objective. Switch count dominates by
// construction — a mapping on a smaller mesh always wins — with mean mesh
// hops and the worst slot-table occupancy breaking ties within one size.
type CostWeights struct {
	SwitchCount float64
	MeanHops    float64
	MaxUtil     float64
}

// DefaultCostWeights weight one saved switch above any achievable hop or
// utilization improvement (hops and utilization are bounded far below 1000
// on every mesh the growth loop visits).
func DefaultCostWeights() CostWeights {
	return CostWeights{SwitchCount: 1000, MeanHops: 1, MaxUtil: 10}
}

// Of scores a result; lower is better.
func (w CostWeights) Of(r *core.Result) float64 {
	return w.OfParts(r.Mapping.SwitchCount(), r.Stats)
}

// OfParts scores a candidate from its switch count and statistics alone.
// The annealer's incremental evaluation produces Stats without
// materializing a Result, so the move loop scores candidates through this
// form.
func (w CostWeights) OfParts(switches int, s core.Stats) float64 {
	return w.SwitchCount*float64(switches) +
		w.MeanHops*s.AvgMeshHops +
		w.MaxUtil*s.MaxLinkUtil
}

// engines is the registry; New resolves names against it. The mutex makes
// registration safe while a concurrent service resolves engines.
var (
	enginesMu sync.RWMutex
	engines   = map[string]func() Engine{
		"greedy":    func() Engine { return Greedy{} },
		"anneal":    func() Engine { return Anneal{} },
		"portfolio": func() Engine { return Portfolio{} },
	}
)

// Register adds (or replaces) an engine constructor under name. Strategies
// outside this package — and test doubles — plug into every consumer
// (nocmap, nocbench, the mapping service) by registering here.
func Register(name string, mk func() Engine) {
	enginesMu.Lock()
	defer enginesMu.Unlock()
	engines[name] = mk
}

// New returns the engine registered under name.
func New(name string) (Engine, error) {
	enginesMu.RLock()
	mk, ok := engines[name]
	enginesMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("search: unknown engine %q (have %v)", name, Names())
	}
	return mk(), nil
}

// Names lists the registered engines in sorted order.
func Names() []string {
	enginesMu.RLock()
	defer enginesMu.RUnlock()
	out := make([]string, 0, len(engines))
	for n := range engines {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
