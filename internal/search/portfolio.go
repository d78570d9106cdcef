package search

import (
	"context"
	"sync"

	"nocmap/internal/core"
	"nocmap/internal/usecase"
)

// Portfolio runs the greedy engine once and races Options.Seeds
// deterministically-seeded annealers (all starting from the greedy result)
// on a shared worker pool, returning the best feasible result under the
// cost weights. All workers observe one context: external cancellation and
// the wall-clock budget stop the whole portfolio, with each annealer
// contributing its best-so-far. Ties break toward the greedy base, then the
// lowest-numbered annealer, so with a fixed base seed and no budget the
// outcome is independent of goroutine scheduling.
type Portfolio struct{}

// Name implements Engine.
func (Portfolio) Name() string { return "portfolio" }

// job is one engine run of the portfolio.
type job struct {
	order  int
	engine Engine
	opts   Options
}

// Search implements Engine.
func (pf Portfolio) Search(ctx context.Context, prep *usecase.Prepared, numCores int,
	p core.Params, opts Options) (*core.Result, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// The greedy pass is deterministic, so it runs once up front — outside
	// the budget, so even a budget too tight for any annealing still yields
	// the feasible greedy result. The annealers all start from its result;
	// if greedy finds no mapping the annealers cannot either, since they
	// explore from the greedy solution.
	// One serialized progress callback is shared by the base run and every
	// member annealer, so the caller's callback never runs concurrently with
	// itself no matter how the pool schedules.
	opts.Progress = serializedProgress(opts.Progress)
	baseOpts := opts
	baseOpts.Progress = nil // the base is re-announced by each member's StageMapped
	base, err := Greedy{}.Search(ctx, prep, numCores, p, baseOpts)
	if err != nil {
		return nil, err
	}
	opts.emit(pf.Name(), StageMapped, base)
	if opts.Budget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opts.Budget)
		defer cancel()
	}

	// The member annealers run without their own budget (the shared context
	// carries it), with derived seeds, and against one shared evaluator
	// cache: the design tables (validation, flow work list, routing plans)
	// and each topology's candidate-path table are built once for the
	// whole pool instead of once per member.
	evals := NewEvalCache(prep, numCores, p)
	var jobs []job
	for i := 0; i < opts.Seeds; i++ {
		o := opts
		o.Budget = 0
		o.Seed = opts.Seed + int64(i)*7919 // distinct deterministic streams
		o.base = base
		o.evals = evals
		jobs = append(jobs, job{order: i + 1, engine: Anneal{}, opts: o})
	}

	// Zero and over-large Workers values clamp to one goroutine per job.
	workers := opts.Workers
	if workers <= 0 || workers > len(jobs) {
		workers = len(jobs)
	}
	results := make([]outcome, len(jobs))
	queue := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				j := jobs[i]
				res, err := j.engine.Search(ctx, prep, numCores, p, j.opts)
				results[i] = outcome{order: j.order, res: res, err: err}
			}
		}()
	}
	for i := range jobs {
		queue <- i
	}
	close(queue)
	wg.Wait()

	best := pickBest(base, results, opts.Weights)
	opts.emit(pf.Name(), StageDone, best)
	return best, nil
}

// outcome is one member's finished run, tagged with its deterministic order
// (0 is reserved for the greedy base).
type outcome struct {
	order int
	res   *core.Result
	err   error
}

// pickBest selects the portfolio winner: the lowest-cost feasible result,
// with ties (within the float tolerance) breaking toward the greedy base
// and then the lowest-numbered annealer — so a fixed base seed yields one
// outcome regardless of goroutine scheduling.
func pickBest(base *core.Result, results []outcome, w CostWeights) *core.Result {
	best, bestCost, bestOrder := base, w.Of(base), 0
	for _, o := range results {
		if o.err != nil || o.res == nil {
			continue // the greedy base already guarantees a feasible result
		}
		c := w.Of(o.res)
		if c < bestCost-1e-12 || (c < bestCost+1e-12 && o.order < bestOrder) {
			best, bestCost, bestOrder = o.res, c, o.order
		}
	}
	return best
}
