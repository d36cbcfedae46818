package main

// The metric lists below are the ones BENCHMARK.json declares, in the
// same order and with the same units (TestMetricsMatchBenchmarkJSON keeps
// the two in step). README.md defines each metric per workload.

var e2eMetrics, e2eUnits = table(
	"setup_s", "s",
	"sims_per_s", "1/s",
	"alloc_mb_per_sim", "MB",
	"peak_rss_mb", "MB",
	"paper_abort_err_pct", "pp",
	"req_ms_p50", "ms",
	"req_ms_p99", "ms",
)

var layerMetrics, layerUnits = table(
	"sim.ns_per_event", "ns",
	"sim.events", "count",
	"sim.cycles", "cycles",
	"sim.cpu_pct", "%",
	"sim.livelocked_specs", "count",
	"noc.cpu_pct", "%",
	"noc.messages", "count",
	"noc.router_traversals", "count",
	"noc.queueing_cycles", "cycles",
	"coherence.cpu_pct", "%",
	"coherence.busy_cycles", "cycles",
	"coherence.busy_nacks", "count",
	"coherence.multicast_fwds", "count",
	"coherence.unicasts", "count",
	"coherence.mispredictions", "count",
	"htm.cpu_pct", "%",
	"htm.commits", "count",
	"htm.aborts", "count",
	"htm.commit_ratio", "ratio",
	"htm.good_cycle_ratio", "ratio",
	"htm.false_abort_frac", "ratio",
	"core.cpu_pct", "%",
	"cm.cpu_pct", "%",
	"cm.nacks", "count",
	"cm.retries", "count",
	"cm.backoff_cycles", "cycles",
	"cache.cpu_pct", "%",
	"mem.cpu_pct", "%",
	"mem.lines", "count",
	"machine.cpu_pct", "%",
	"machine.build_ms", "ms",
	"machine.run_ms_p50", "ms",
	"machine.run_ms_p90", "ms",
	"machine.encode_us", "us",
	"machine.decode_us", "us",
	"stamp.cpu_pct", "%",
	"serve.cpu_pct", "%",
	"puno.cpu_pct", "%",
	"syscall.cpu_pct", "%",
	"std.cpu_pct", "%",
	"gc.cpu_pct", "%",
	"gc.cycles", "count",
	"gc.pause_ms", "ms",
	"runtime.cpu_pct", "%",
	"runner.busy_frac", "ratio",
	"runner.tail_ms", "ms",
	"serve.key_us", "us",
	"serve.submit_hit_us", "us",
	"serve.http_overhead_us", "us",
	"serve.hit_ms_p50", "ms",
	"serve.hit_ms_p99", "ms",
	"serve.miss_ms_p50", "ms",
	"serve.miss_ms_p99", "ms",
	"serve.wait_ms_p99", "ms",
	"serve.queue_len_max", "count",
	"serve.runs", "count",
	"serve.collapsed", "count",
	"serve.hit_ratio", "ratio",
	"serve.rejected", "count",
	"serve.slo_rps", "1/s",
	"loadgen.sent", "count",
	"loadgen.lag_ms_p99", "ms",
	"bench.trace_overhead_pct", "%",
	"bench.failed_frac", "ratio",
)

// cpuModules are the modules whose profile share is reported as
// <module>.cpu_pct.
var cpuModules = []string{
	"sim", "noc", "coherence", "htm", "core", "cm", "cache", "mem",
	"machine", "stamp", "serve", "puno", "syscall", "std", "gc", "runtime",
}

func table(pairs ...string) ([]string, map[string]string) {
	var names []string
	units := map[string]string{}
	for i := 0; i < len(pairs); i += 2 {
		names = append(names, pairs[i])
		units[pairs[i]] = pairs[i+1]
	}
	return names, units
}

// zeroLayers sets every per-layer metric the workload has not measured to
// zero: a layer the workload does not exercise reports nothing.
func zeroLayers(o *outcome) {
	for _, n := range layerMetrics {
		if _, ok := o.metrics[n]; !ok {
			o.metrics[n] = 0
		}
	}
}
