package search

import (
	"sync"

	"nocmap/internal/core"
	"nocmap/internal/topology"
	"nocmap/internal/usecase"
)

// EvalCache shares one core.Evaluator per topology across a search, all
// derived from one set of design tables. The first topology asked for
// validates the inputs and builds the tables (the flow work list, per-pair
// routing plans and NI demand projections); every later topology derives
// its evaluator from them with ForTopology, paying only for its own
// candidate-path table and scratch pool. A single annealer reuses an
// evaluator between its move chain and its shrink probes on the same
// fabric; the portfolio shares one cache across every member, so N
// annealers probing the same smaller mesh share one evaluator. Evaluators
// are safe for concurrent use, so handing one to multiple workers is sound.
// Engine subpackages (population, exact) build their own cache per Search
// call through NewEvalCache.
type EvalCache struct {
	prep     *usecase.Prepared
	numCores int
	p        core.Params

	mu sync.Mutex
	m  map[string]*core.Evaluator
	// base is the first evaluator built; its design tables back every
	// other entry.
	base *core.Evaluator
}

// NewEvalCache returns an empty evaluator cache over the prepared design.
func NewEvalCache(prep *usecase.Prepared, numCores int, p core.Params) *EvalCache {
	return &EvalCache{prep: prep, numCores: numCores, p: p, m: make(map[string]*core.Evaluator)}
}

// For returns the cached evaluator for the topology, constructing it on
// first use. Topologies are keyed by their description (family plus
// dimensions, or the custom fabric's name), so shape-equal instances built
// by different workers share one evaluator; callers must use the returned
// evaluator's Topology() rather than their own instance.
func (c *EvalCache) For(top *topology.Topology) (*core.Evaluator, error) {
	key := top.String()
	c.mu.Lock()
	defer c.mu.Unlock()
	if ev, ok := c.m[key]; ok {
		return ev, nil
	}
	var ev *core.Evaluator
	var err error
	if c.base == nil {
		ev, err = core.NewEvaluator(c.prep, c.numCores, top, c.p)
		c.base = ev
	} else {
		ev, err = c.base.ForTopology(top)
	}
	if err != nil {
		return nil, err
	}
	c.m[key] = ev
	return ev, nil
}
