package main

import "fmt"

// metricSpec declares one reported metric; BENCHMARK.json lists the same
// names, units and directions (a test holds the two together).
type metricSpec struct {
	name, unit, better string
}

var endToEndSpecs = []metricSpec{
	{"setup_s", "s", "lower"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_p90_ms", "ms", "lower"},
	{"final_p50_ms", "ms", "lower"},
	{"final_p90_ms", "ms", "lower"},
	{"cpu_ms_per_req", "ms", "lower"},
	{"allocs_per_req", "count", "lower"},
	{"alloc_mb_per_req", "MB", "lower"},
	{"switches_mean", "count", "lower"},
	{"cost_mean", "cost", "lower"},
	{"gap_mean", "ratio", "lower"},
	{"unproven_share", "ratio", "lower"},
}

var perLayerSpecs = []metricSpec{
	{"traffic.decode_ms", "ms", "lower"},
	{"traffic.digest_ms", "ms", "lower"},
	{"service.encode_ms", "ms", "lower"},
	{"store.get_ms", "ms", "lower"},
	{"store.hit_ratio", "ratio", "higher"},
	{"usecase.prepare_ms", "ms", "lower"},
	{"search.greedy_ms", "ms", "lower"},
	{"core.evaluator_build_ms", "ms", "lower"},
	{"core.attempts_per_req", "count", "lower"},
	{"core.attempt_yield", "ratio", "higher"},
	{"core.map_allocs", "count", "lower"},
	{"store.put_ms", "ms", "lower"},
	{"service.queue_ms", "ms", "lower"},
	{"search.anneal_ms", "ms", "lower"},
	{"search.moves_per_req", "count", "lower"},
	{"search.accept_ratio", "ratio", "higher"},
	{"core.session_us_per_move", "us", "lower"},
	{"search.improvements_per_req", "count", "higher"},
	{"service.summarize_ms", "ms", "lower"},
	{"verify.check_ms", "ms", "lower"},
	{"store.upgrades_per_req", "count", "higher"},
	{"exact.search_ms", "ms", "lower"},
	{"exact.nodes_per_req", "count", "lower"},
	{"host.calib_ms", "ms", "lower"},
	{"trace.overhead_ms", "ms", "lower"},
}

func specsFor(traced bool) []metricSpec {
	if traced {
		return perLayerSpecs
	}
	return endToEndSpecs
}

// values attaches units to raw values, refusing a value for an undeclared
// metric or a missing one for a declared metric.
func values(specs []metricSpec, raw map[string]float64) (map[string]metric, error) {
	out := make(map[string]metric, len(specs))
	for _, s := range specs {
		v, ok := raw[s.name]
		if !ok {
			return nil, fmt.Errorf("metric %s not measured", s.name)
		}
		out[s.name] = metric{Value: v, Unit: s.unit}
	}
	if len(raw) != len(specs) {
		return nil, fmt.Errorf("%d metrics measured, %d declared", len(raw), len(specs))
	}
	return out, nil
}

// latencies returns the first-result and final-result times in ms.
func (ph *phase) latencies() (first, final []float64) {
	for _, o := range ph.outs {
		first = append(first, msOf(o.first))
		final = append(final, msOf(o.final))
	}
	return first, final
}

// endToEnd reduces an untraced phase to the end-to-end metrics. Times are
// host-normalized (see phase.scale); setupS already is.
func endToEnd(ph *phase, setupS float64) (map[string]metric, error) {
	k := ph.scale()
	first, final := ph.latencies()
	first, final = sortedCopy(first), sortedCopy(final)
	raw := map[string]float64{"setup_s": setupS}
	for name, q := range map[string]struct {
		xs []float64
		p  float64
	}{
		"latency_p50_ms": {first, 0.5}, "latency_p90_ms": {first, 0.9},
		"final_p50_ms": {final, 0.5}, "final_p90_ms": {final, 0.9},
	} {
		v, err := percentile(q.xs, q.p)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		raw[name] = v * k
	}
	n := float64(len(ph.outs))
	raw["cpu_ms_per_req"] = msOf(ph.use.cpu) / n * k
	raw["allocs_per_req"] = float64(ph.use.mallocs) / n
	raw["alloc_mb_per_req"] = float64(ph.use.allocB) / 1e6 / n
	var switches, cost, gap, unproven []float64
	for _, c := range ph.checks {
		switches = append(switches, float64(c.sum.Switches))
		cost = append(cost, c.cost())
		gap = append(gap, c.sum.OptimalityGap)
		if c.sum.BoundExact {
			unproven = append(unproven, 0)
		} else {
			unproven = append(unproven, 1)
		}
	}
	raw["switches_mean"] = mean(switches)
	raw["cost_mean"] = mean(cost)
	raw["gap_mean"] = mean(gap)
	raw["unproven_share"] = mean(unproven)
	return values(endToEndSpecs, raw)
}

// perLayer reduces a traced phase to the per-layer metrics; untraced is
// the same plan run without tracing, the base of the tracing overhead.
// Times other than host.calib_ms itself are host-normalized.
func perLayer(tr *tracer, untraced, traced *phase) (map[string]metric, error) {
	k := traced.scale()
	raw := tr.layerMetrics()
	var queue []float64
	for _, c := range traced.checks {
		queue = append(queue, c.queueMS)
	}
	raw["service.queue_ms"] = mean(queue)
	for _, s := range perLayerSpecs {
		if v, ok := raw[s.name]; ok && isTime(s.unit) {
			raw[s.name] = v * k
		}
	}
	u, _ := untraced.latencies()
	t, _ := traced.latencies()
	raw["trace.overhead_ms"] = median(t)*k - median(u)*untraced.scale()
	raw["host.calib_ms"] = median(append(append([]float64(nil), untraced.calib...), traced.calib...))
	return values(perLayerSpecs, raw)
}

func isTime(unit string) bool { return unit == "s" || unit == "ms" || unit == "us" }

// describe prints each metric with its sample count.
func describe(specs []metricSpec, ms map[string]metric, samples func(string) int) []string {
	var lines []string
	for _, s := range specs {
		lines = append(lines, fmt.Sprintf("  %-28s %16.6f %-6s n=%d", s.name, ms[s.name].Value, s.unit, samples(s.name)))
	}
	return lines
}
