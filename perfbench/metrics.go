package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
)

// metric describes one reported number: its unit and, for per-layer
// metrics, the layer it belongs to and the end-to-end metric it moves.
type metric struct {
	name  string
	unit  string
	layer string // empty for end-to-end metrics
	moves string // end-to-end metric (and workload) this layer metric should move
}

// endToEnd are the user-visible metrics of every untraced run. Every
// workload reports all of them; what a "request" and a "work item" are
// depends on the workload (README.md).
var endToEnd = []metric{
	{name: "setup_s", unit: "s"},
	{name: "wall_s", unit: "s"},
	{name: "cpu_s", unit: "s"},
	{name: "throughput_per_s", unit: "1/s"},
	{name: "latency_p50_us", unit: "us"},
	{name: "latency_p99_us", unit: "us"},
	{name: "peak_rss_mb", unit: "MB"},
}

// paperSteps are the cmd/figures steps in the order figures runs them;
// later steps reuse the characterizations earlier ones memoized.
var paperSteps = []string{
	"table1", "fig2", "fig3", "fig4", "fig6", "fig7", "fig9", "fig10",
	"fig11", "fig12", "fig13", "fig14", "fig16", "fig18", "ablation", "crossmachine",
}

// perLayer are the metrics of a traced run. Every traced run reports all
// of them; a layer a workload does not exercise reads 0.
var perLayer = func() []metric {
	var out []metric
	for _, s := range paperSteps {
		out = append(out, metric{"experiments." + s + "_s", "s", "experiments", "wall_s on paper-test"})
	}
	const paper = "wall_s, cpu_s on paper-test"
	out = append(out,
		metric{"profile.simulate_runs", "count", "profile", paper},
		metric{"profile.simulate_ms_p50", "ms", "profile", paper},
		metric{"profile.characterize_count", "count", "profile", paper},
		metric{"profile.prewarm_s", "s", "profile", paper},
		metric{"profile.warmup_s", "s", "profile", paper},
		metric{"profile.measure_s", "s", "profile", paper},
		metric{"profile.prewarm_share", "frac", "profile", paper},

		metric{"engine.sim_cycles", "cycles", "engine", "wall_s on paper-test"},
		metric{"engine.cycles_per_s", "cycles/s", "engine", "wall_s on paper-test"},
		metric{"engine.prewarm_uops", "uops", "engine", "wall_s on paper-test"},
		metric{"engine.prewarm_uops_per_s", "uops/s", "engine", "wall_s on paper-test"},

		metric{"simcache.hits", "count", "simcache", "wall_s on paper-test"},
		metric{"simcache.misses", "count", "simcache", "wall_s on paper-test"},
		metric{"simcache.hit_ratio", "frac", "simcache", "wall_s on paper-test"},
		metric{"simcache.wait_s", "s", "simcache", "wall_s on paper-test"},

		metric{"sched.busy_frac", "frac", "sched", "wall_s on paper-test"},
		metric{"cluster.shard_max_over_mean", "ratio", "sched", "throughput_per_s on fleet-drift"},

		metric{"cluster.runsim_s", "s", "cluster", "throughput_per_s on fleet-drift"},
		metric{"cluster.ns_per_event", "ns", "cluster", "throughput_per_s on fleet-drift"},
		metric{"cluster.allocs_per_event", "count", "cluster", "throughput_per_s on fleet-drift"},
		metric{"cluster.placed_frac", "frac", "cluster", "throughput_per_s on fleet-drift"},
		metric{"cluster.detections", "count", "cluster", "throughput_per_s on fleet-drift"},
		metric{"cluster.migrations", "count", "cluster", "throughput_per_s on fleet-drift"},
		metric{"cluster.migrations_failed_frac", "frac", "cluster", "throughput_per_s on fleet-drift"},
		metric{"cluster.build_predtable_s", "s", "cluster", "setup_s on fleet-drift"},
		metric{"cluster.generate_events_s", "s", "cluster", "setup_s on fleet-drift"},

		metric{"qosd.surrogate_share", "frac", "qosd", "throughput_per_s, latency_p50_us on qosd-mixed"},
		metric{"qosd.engine_share", "frac", "qosd", "throughput_per_s, latency_p50_us on qosd-mixed"},
		metric{"qosd.memo_hit_ratio", "frac", "qosd", "throughput_per_s, latency_p50_us on qosd-mixed"},
		metric{"qosd.reject_share", "frac", "qosd", "throughput_per_s, latency_p50_us on qosd-mixed"},
		metric{"qosd.remedy_share", "frac", "qosd", "throughput_per_s, latency_p50_us on qosd-mixed"},
		metric{"qosd.upload_p50_us", "us", "qosd", "throughput_per_s, latency_p50_us on qosd-mixed"},
		metric{"qosd.allocs_per_req", "count", "qosd", "throughput_per_s, latency_p50_us on qosd-mixed"},
		metric{"qosd.http_us", "us", "qosd", "throughput_per_s, latency_p50_us on qosd-mixed"},

		metric{"surrogate.predict_ns", "ns", "surrogate", "latency_p50_us on qosd-mixed"},
		metric{"model.predict_partial_ns", "ns", "model", "latency_p50_us on qosd-mixed"},
		metric{"qosd.evaluate_ns", "ns", "queueing", "latency_p50_us on qosd-mixed"},
		metric{"qosd.decision_ns", "ns", "queueing", "latency_p50_us on qosd-mixed"},

		metric{"trace.overhead_frac", "frac", "obs/trace", "none: traced ÷ untraced wall_s − 1"},
	)
	return out
}()

// emit renders a metric set as the result's "metrics" object: every
// catalog metric in order, with its unit; missing values read 0.
func emit(catalog []metric, values map[string]float64) map[string]any {
	out := make(map[string]any, len(catalog))
	for _, m := range catalog {
		out[m.name] = map[string]any{"value": values[m.name], "unit": m.unit}
	}
	return out
}

// printLayerTable writes the per-layer table of the metrics the workload
// measured: layer, metric, unit, value and the end-to-end metric each
// should move.
func printLayerTable(w io.Writer, values map[string]float64) {
	fmt.Fprintf(w, "%-12s %-34s %-9s %16s  %s\n", "layer", "metric", "unit", "value", "moves")
	for _, m := range perLayer {
		if v, ok := values[m.name]; ok {
			fmt.Fprintf(w, "%-12s %-34s %-9s %16s  %s\n", m.layer, m.name, m.unit, formatValue(v), m.moves)
		}
	}
}

func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatFloat(v, 'f', 0, 64)
	}
	return strconv.FormatFloat(v, 'g', 6, 64)
}

// median returns the middle value (mean of the two middle values for an
// even count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank percentile p in (0, 1] of xs; 0 for no
// samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
