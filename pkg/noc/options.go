package noc

import (
	"time"

	"nocmap/internal/core"
	"nocmap/internal/search"
)

// Option configures one Map call (local or through a Client). Options
// compose left to right; later options win.
type Option func(*config)

// config is the resolved option set. Pointer-typed knobs distinguish
// "untouched" from an explicit zero, which the wire form of the service
// also needs.
type config struct {
	engine   string
	topology string // "", "mesh", "torus" or "@fabric.json"; "" = design's tag
	params   core.Params
	opts     search.Options

	// Wire-relevant overrides, kept as set/unset for Client requests.
	seed        *int64
	seeds       *int
	iters       *int
	population  *int
	generations *int
	nodes       *int
	budget      *time.Duration
	freq        *float64
	slots       *int
	maxDim      *int
	improve     *bool

	// Local-only knobs (rejected by Client.Map).
	paramsSet  bool
	weightsSet bool
	workers    *int
	restarts   *int
}

func newConfig(opts []Option) *config {
	cfg := &config{
		engine: "greedy",
		params: core.DefaultParams(),
		opts:   search.DefaultOptions(),
	}
	for _, o := range opts {
		o(cfg)
	}
	return cfg
}

// WithEngine selects the search engine by registry name; see Engines for
// the valid set. The default is "greedy", the paper's Algorithm 2.
func WithEngine(name string) Option {
	return func(c *config) { c.engine = name }
}

// WithTopology selects the interconnect family: "mesh", "torus", or
// "@fabric.json" to load a custom switch/link graph from a file. The empty
// string (the default) defers to the design's own topology tag, falling
// back to mesh.
func WithTopology(arg string) Option {
	return func(c *config) { c.topology = arg }
}

// WithParams replaces the architecture parameters wholesale. Options
// applied after it (WithFrequencyMHz, WithSlotTableSize, ...) refine the
// given parameters. Local mapping only: a Client request carries individual
// overrides, not full parameter sets.
func WithParams(p Params) Option {
	return func(c *config) { c.params = p; c.paramsSet = true }
}

// WithFrequencyMHz sets the NoC operating frequency.
func WithFrequencyMHz(f float64) Option {
	return func(c *config) { c.params.FreqMHz = f; c.freq = &f }
}

// WithSlotTableSize sets the TDMA slot-table length of every link.
func WithSlotTableSize(n int) Option {
	return func(c *config) { c.params.SlotTableSize = n; c.slots = &n }
}

// WithMaxMeshDim caps the growth loop at n x n.
func WithMaxMeshDim(n int) Option {
	return func(c *config) { c.params.MaxMeshDim = n; c.maxDim = &n }
}

// WithImprove toggles the placement-refinement pass after mapping.
func WithImprove(on bool) Option {
	return func(c *config) { c.params.Improve = on; c.improve = &on }
}

// WithSeed sets the base PRNG seed of the stochastic engines; a fixed seed
// reproduces the run exactly.
func WithSeed(seed int64) Option {
	return func(c *config) { c.opts.Seed = seed; c.seed = &seed }
}

// WithSeeds sets how many multi-start annealers the portfolio engine races.
func WithSeeds(n int) Option {
	return func(c *config) { c.opts.Seeds = n; c.seeds = &n }
}

// WithIters sets the number of annealing moves per start.
func WithIters(n int) Option {
	return func(c *config) { c.opts.Iters = n; c.iters = &n }
}

// WithPopulation sets the population size of the population engines (ga,
// pso, abc). 0 keeps the engines' default of 16.
func WithPopulation(n int) Option {
	return func(c *config) { c.opts.Population = n; c.population = &n }
}

// WithGenerations sets how many generations (cycles) the population engines
// evolve per fabric size. 0 keeps the engines' default of 24.
func WithGenerations(n int) Option {
	return func(c *config) { c.opts.Generations = n; c.generations = &n }
}

// WithExactNodes sets the exact engine's deterministic search budget, in
// weighted tree nodes (descending one assignment edge costs 1, evaluating a
// complete placement costs 100). A fixed budget reproduces the identical
// bound on every run. 0 keeps the default of 500000.
func WithExactNodes(n int) Option {
	return func(c *config) { c.opts.Nodes = n; c.nodes = &n }
}

// WithRestarts sets how many random placements the annealer tries per
// smaller-than-greedy fabric size when probing for a feasible start. Local
// mapping only.
func WithRestarts(n int) Option {
	return func(c *config) { c.opts.Restarts = n; c.restarts = &n }
}

// WithBudget bounds the wall-clock time of the improvement phase; the
// constructive base always completes, so a tight budget degrades to the
// greedy result rather than an error. Zero means unbounded.
func WithBudget(d time.Duration) Option {
	return func(c *config) { c.opts.Budget = d; c.budget = &d }
}

// WithWorkers caps the portfolio's concurrent annealers (default: one
// goroutine per member). Local mapping only.
func WithWorkers(n int) Option {
	return func(c *config) { c.opts.Workers = n; c.workers = &n }
}

// WithWeights replaces the cost weights scoring candidate mappings. Local
// mapping only: the service scores with its configured weights so cache
// keys stay comparable.
func WithWeights(w Weights) Option {
	return func(c *config) { c.opts.Weights = w; c.weightsSet = true }
}

// WithProgress streams search progress into fn: the constructive base
// (StageMapped), every strict improvement of an annealer's incumbent
// (StageImproved), and the final result (StageDone). fn runs synchronously
// on the searching goroutine and is never invoked concurrently with itself.
// Local mapping only.
func WithProgress(fn func(Event)) Option {
	return func(c *config) { c.opts.Progress = fn }
}
