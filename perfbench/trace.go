package main

import (
	"context"
	"encoding/json"
	"runtime"
	"time"

	"nocmap/internal/core"
	"nocmap/internal/search"
	"nocmap/internal/service"
	"nocmap/internal/store"
	"nocmap/internal/usecase"
	"nocmap/internal/verify"
)

// tracer replays requests in-process through the public functions the
// service calls, in the service's order, recording one span per layer
// call. It never runs inside a timed round trip: the traced run replays
// each request after its round trip has been measured.
//
// The mirror store stands in for the service's result store, so hits and
// misses in the replay follow the ones the service saw.
type tracer struct {
	t0     time.Time
	spans  []span
	mirror store.Store

	// Counts recorded at the layer boundaries.
	requests               int
	gets, hits             int
	attempts, greedyRuns   int
	mapAllocs              uint64
	moves, accepted        int64
	improvements, upgrades int
	nodes                  int64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), mirror: store.NewMemory(service.Config{}.Defaults().CacheEntries)}
}

// begin opens a span on behalf of request req under parent (-1: root).
func (t *tracer) begin(name string, parent, req int) int {
	t.spans = append(t.spans, span{name: name, start: time.Since(t.t0), parent: parent, req: req})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) { t.spans[i].end = time.Since(t.t0) }

// replay runs request body through the service pipeline in-process and
// returns the compacted result JSON. req < 0 marks a warm-up replay, whose
// spans and counts are discarded.
func (t *tracer) replay(req int, body []byte, w workload) ([]byte, error) {
	if req < 0 {
		// Warm-ups only fill the mirror store.
		scratch := &tracer{t0: t.t0, mirror: t.mirror}
		return scratch.replay(0, body, w)
	}
	ctx := context.Background()
	t.requests++
	root := t.begin("replay", -1, req)
	defer t.end(root)

	s := t.begin("traffic.decode", root, req)
	var mr service.MapRequest
	err := json.Unmarshal(body, &mr)
	var r service.Request
	if err == nil {
		r, err = mr.ToRequest()
	}
	t.end(s)
	if err != nil {
		return nil, err
	}
	s = t.begin("traffic.digest", root, req)
	r.Design.Digest()
	t.end(s)
	s = t.begin("service.key", root, req)
	key, err := r.Key()
	t.end(s)
	if err != nil {
		return nil, err
	}
	s = t.begin("store.get", root, req)
	e, hit, err := t.mirror.Get(ctx, key)
	t.end(s)
	if err != nil {
		return nil, err
	}
	t.gets++
	var resp *service.Response
	if hit {
		t.hits++
		resp = e.Val.(*service.Response)
	} else {
		if resp, err = t.solve(ctx, req, root, r, key, w.stream); err != nil {
			return nil, err
		}
	}
	s = t.begin("service.encode", root, req)
	_, err = json.MarshalIndent(resp, "", "  ")
	t.end(s)
	if err != nil {
		return nil, err
	}
	return json.Marshal(resp.Result)
}

// solve is the miss path: prepare, search, summarize, verify and store, as
// service.solve and service.SubmitStream run them.
func (t *tracer) solve(ctx context.Context, req, root int, r service.Request, key string, stream bool) (*service.Response, error) {
	s := t.begin("usecase.prepare", root, req)
	prep, err := usecase.Prepare(r.Design)
	t.end(s)
	if err != nil {
		return nil, err
	}
	n := r.Design.NumCores()
	weights := r.Opts.Weights
	summarize := func(res *core.Result, parent int) *service.Response {
		s := t.begin("service.summarize", parent, req)
		out := &service.Response{Key: key, Engine: r.Engine, Result: service.SummarizeResult(r.Design.Name, prep, res)}
		t.end(s)
		s = t.begin("verify.check", parent, req)
		verify.Check(res.Mapping)
		t.end(s)
		return out
	}
	upgrade := func(resp *service.Response, cost float64, parent int) error {
		s := t.begin("store.upgrade", parent, req)
		pr, err := t.mirror.UpgradeIfBetter(ctx, key, store.Entry{Cost: cost, Val: resp})
		t.end(s)
		if pr.Upgraded {
			t.upgrades++
		}
		return err
	}

	switch {
	case stream:
		// SubmitStream: the inline greedy pass answers first and seeds the
		// store; the requested engine then improves on it.
		gres, err := t.greedy(ctx, req, root, prep, n, r.Params, func() (*core.Result, error) {
			return core.MapContext(ctx, prep, n, r.Params)
		})
		if err != nil {
			return nil, err
		}
		first := summarize(gres, root)
		best := weights.Of(gres)
		if err := upgrade(first, best, root); err != nil {
			return nil, err
		}
		eng, err := search.New(r.Engine)
		if err != nil {
			return nil, err
		}
		a := t.begin("search.anneal", root, req)
		var tapErr error
		opts := r.Opts
		opts.Progress = func(ev search.Event) {
			switch ev.Stage {
			case search.StageMapped:
				// The engine's own greedy base ends where it announces it.
				t.spans = append(t.spans, span{name: "search.anneal_base",
					start: t.spans[a].start, end: time.Since(t.t0), parent: a, req: req})
			case search.StageImproved:
				if ev.Result == nil || ev.Cost >= best-store.CostEps {
					return
				}
				best = ev.Cost
				t.improvements++
				if err := upgrade(summarize(ev.Result, a), ev.Cost, a); err != nil && tapErr == nil {
					tapErr = err
				}
			case search.StageDone:
				t.moves += ev.Counts.Moves
				t.accepted += ev.Counts.Accepted
			}
		}
		res, err := eng.Search(ctx, prep, n, r.Params, opts)
		t.end(a)
		if err == nil {
			err = tapErr
		}
		if err != nil {
			return nil, err
		}
		final := summarize(res, root)
		return final, upgrade(final, weights.Of(res), root)

	case r.Engine == "greedy":
		eng, err := search.New(r.Engine)
		if err != nil {
			return nil, err
		}
		res, err := t.greedy(ctx, req, root, prep, n, r.Params, func() (*core.Result, error) {
			return eng.Search(ctx, prep, n, r.Params, r.Opts)
		})
		if err != nil {
			return nil, err
		}
		return t.put(ctx, req, root, key, summarize(res, root), weights.Of(res))

	default:
		eng, err := search.New(r.Engine)
		if err != nil {
			return nil, err
		}
		name := r.Engine + ".search"
		x := t.begin(name, root, req)
		opts := r.Opts
		opts.Progress = func(ev search.Event) {
			switch ev.Stage {
			case search.StageMapped:
				t.spans = append(t.spans, span{name: "search." + r.Engine + "_base",
					start: t.spans[x].start, end: time.Since(t.t0), parent: x, req: req})
			case search.StageDone:
				t.nodes += ev.Counts.Moves
			}
		}
		res, err := eng.Search(ctx, prep, n, r.Params, opts)
		t.end(x)
		if err != nil {
			return nil, err
		}
		return t.put(ctx, req, root, key, summarize(res, root), weights.Of(res))
	}
}

// greedy times one constructive run (its allocations included) and then
// each evaluator build its growth loop paid for, one span per evaluated
// mesh size.
func (t *tracer) greedy(ctx context.Context, req, root int, prep *usecase.Prepared, n int, p core.Params,
	run func() (*core.Result, error)) (*core.Result, error) {
	before := mallocs()
	s := t.begin("search.greedy", root, req)
	res, err := run()
	t.end(s)
	t.mapAllocs += mallocs() - before
	if err != nil {
		return nil, err
	}
	t.greedyRuns++
	for _, at := range res.Attempts {
		if at.Skipped {
			continue
		}
		t.attempts++
		top, err := p.Topology.ForDim(at.Dim, p.CoresPerSwitch())
		if err != nil {
			return nil, err
		}
		s := t.begin("core.evaluator_build", root, req)
		_, err = core.NewEvaluator(prep, n, top, p)
		t.end(s)
		if err != nil {
			return nil, err
		}
	}
	return res, nil
}

func (t *tracer) put(ctx context.Context, req, root int, key string, resp *service.Response, cost float64) (*service.Response, error) {
	s := t.begin("store.put", root, req)
	_, err := t.mirror.Put(ctx, key, store.Entry{Cost: cost, Val: resp})
	t.end(s)
	return resp, err
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// layerMetrics reduces the spans and counts to the per-layer metrics.
// Times are self times summed per request, averaged over replayed
// requests.
func (t *tracer) layerMetrics() map[string]float64 {
	self := selfTimes(t.spans)
	total := map[string]time.Duration{}
	for i, s := range t.spans {
		total[s.name] += self[i]
	}
	n := float64(max(t.requests, 1))
	perReq := func(name string) float64 { return msOf(total[name]) / n }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	return map[string]float64{
		"traffic.decode_ms":           perReq("traffic.decode"),
		"traffic.digest_ms":           perReq("traffic.digest"),
		"service.encode_ms":           perReq("service.encode"),
		"store.get_ms":                perReq("store.get"),
		"store.hit_ratio":             ratio(float64(t.hits), float64(t.gets)),
		"usecase.prepare_ms":          perReq("usecase.prepare"),
		"search.greedy_ms":            perReq("search.greedy"),
		"core.evaluator_build_ms":     perReq("core.evaluator_build"),
		"core.attempts_per_req":       float64(t.attempts) / n,
		"core.attempt_yield":          ratio(float64(t.greedyRuns), float64(t.attempts)),
		"core.map_allocs":             ratio(float64(t.mapAllocs), float64(t.greedyRuns)),
		"store.put_ms":                perReq("store.put") + perReq("store.upgrade"),
		"search.anneal_ms":            perReq("search.anneal"),
		"search.moves_per_req":        float64(t.moves) / n,
		"search.accept_ratio":         ratio(float64(t.accepted), float64(t.moves)),
		"core.session_us_per_move":    ratio(float64(total["search.anneal"].Microseconds()), float64(t.moves)),
		"search.improvements_per_req": float64(t.improvements) / n,
		"service.summarize_ms":        perReq("service.summarize"),
		"verify.check_ms":             perReq("verify.check"),
		"store.upgrades_per_req":      float64(t.upgrades) / n,
		"exact.search_ms":             perReq("exact.search"),
		"exact.nodes_per_req":         float64(t.nodes) / n,
	}
}
