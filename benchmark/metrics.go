package main

import (
	"fmt"
	"time"
)

// metricDef names one printed metric. BENCHMARK.json lists the same
// names; the tests hold the two lists equal.
type metricDef struct {
	Name   string
	Unit   string
	Better string
}

// endToEnd are the metrics of an untraced run (--trace 0). Every
// workload reports each of them; README.md gives each one's meaning per
// workload and why wall-clock figures are printed but not among them.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"cpu_ms_per_op", "ms", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// layerTimes are the per-layer busy times. Each is printed twice, as
// <name>.p1 (GOMAXPROCS=1) and <name>.pn (GOMAXPROCS=nproc).
var layerTimes = []string{
	"source.enumerate_s",
	"source.quotient_s",
	"engine.execute_s",
	"core.runshard_s",
	"core.encode_s",
	"core.verify_stream_s",
	"cache.get_s",
	"cache.put_s",
	"episteme.build_index_s",
	"episteme.execute_intern_s",
	"episteme.merge_s",
	"episteme.expand_s",
	"episteme.cn_s",
	"episteme.check_implements_s",
	"episteme.check_safety_s",
	"episteme.check_optimality_s",
	"serve.build_s",
	"serve.sweep_handler_s",
	"serve.check_handler_s",
	"serve.knowledge_handler_s",
}

// layerCounts are the per-layer counts and ratios, taken from the
// GOMAXPROCS=nproc traced pass.
var layerCounts = []metricDef{
	{"source.scenarios", "count", "lower"},
	{"source.representatives", "count", "lower"},
	{"source.reduction_ratio", "ratio", "higher"},
	{"engine.allocs_per_run", "count", "lower"},
	{"engine.bytes_per_run", "B", "lower"},
	{"core.records", "count", "higher"},
	{"core.stream_bytes", "B", "lower"},
	{"cache.gets", "count", "lower"},
	{"cache.puts", "count", "lower"},
	{"cache.hit_ratio", "ratio", "higher"},
	{"cache.bytes_written", "B", "lower"},
	{"cache.bytes_served", "B", "lower"},
	{"cache.rejects", "count", "lower"},
	{"episteme.live_heap_mb", "MB", "lower"},
	{"serve.lru_hit_ratio", "ratio", "higher"},
	{"serve.lru_misses", "count", "lower"},
	{"serve.retried_429", "count", "lower"},
	{"serve.rejected", "count", "lower"},
	{"serve.result_cache_hit_ratio", "ratio", "higher"},
	{"trace.overhead_ratio", "ratio", "lower"},
	{"trace.top_level_share", "ratio", "higher"},
}

// derivedTimes are layer times computed as one span total minus
// another, over the same pass.
var derivedTimes = []struct{ name, whole, part string }{
	{"episteme.execute_intern_s", "episteme.build_index_s", "source.quotient_s"},
	{"core.encode_s", "core.runshard_s", "engine.execute_s"},
}

// perLayer lists every metric of a traced run (--trace 1).
func perLayer() []metricDef {
	var out []metricDef
	for _, name := range layerTimes {
		for _, suffix := range []string{".p1", ".pn"} {
			out = append(out, metricDef{name + suffix, "s", "lower"})
		}
	}
	return append(out, layerCounts...)
}

// layerSample holds the per-layer values of one traced pass, keyed by
// metric name without the .p1/.pn suffix.
type layerSample map[string]float64

func (m layerSample) time(name string, d time.Duration) { m[name] = d.Seconds() }

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// collect builds the printed metrics map for defs from values, failing
// on a metric the run did not produce.
func collect(defs []metricDef, values map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return out, nil
}
