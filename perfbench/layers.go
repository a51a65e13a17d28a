package main

import (
	"fmt"
	"os"
	"sort"
)

// simStats name the simulated statistics every workload reports in its
// traced run. A speed-only change leaves them identical; they also feed
// the digests behind fail_frac.
var simStats = []string{
	"simclock.events", "sched.cpu_util", "vm.faults", "vm.page_in_ms",
	"netsim.link_util", "netsim.drops", "netsim.lost_inputs",
	"server.echo_samples", "server.echo_p95_ms", "server.censored",
	"server.login_max_ms", "shard.arrivals", "shard.clamped",
}

var simStatUnits = map[string]string{
	"simclock.events": "count", "sched.cpu_util": "frac", "vm.faults": "count",
	"vm.page_in_ms": "ms", "netsim.link_util": "frac", "netsim.drops": "count",
	"netsim.lost_inputs": "count", "server.echo_samples": "count",
	"server.echo_p95_ms": "ms", "server.censored": "count",
	"server.login_max_ms": "ms", "shard.arrivals": "count", "shard.clamped": "count",
}

// perLayer builds the traced run's metrics. Every workload reports every
// name; a metric that does not apply to a workload reads 0.
func perLayer(e2e map[string]metric, stats map[string]float64, lp *layerProfile, sp *spans, tracedWall []float64, t tally) map[string]metric {
	out := map[string]metric{}
	for _, l := range layers {
		out[l+".cpu_pct"] = metric{100 * lp.cpu[l] / lp.cpuTotal, "%"}
		out[l+".alloc_mb"] = metric{lp.alloc[l] / 1e6 / float64(lp.iters), "MB"}
	}
	for _, name := range simStats {
		out[name] = metric{stats[name], simStatUnits[name]}
	}

	wall := e2e["wall_s"].Value
	perEvent := 0.0
	if ev := stats["simclock.events"]; ev > 0 {
		perEvent = wall * 1e9 / ev
	}
	out["simclock.host_ns_per_event"] = metric{perEvent, "ns"}
	out["farm.cpu_per_wall"] = metric{e2e["cpu_s"].Value / wall, "1"}
	out["stream_mb_s"] = metric{stats["stream.bytes"] / 1e6 / wall, "MB/s"}
	out["fail_frac"] = metric{float64(t.failed) / float64(t.attempted), "frac"}
	out["tracing.overhead_pct"] = metric{100 * (median(tracedWall)/wall - 1), "%"}

	// Set-up calls, per iteration; the runs, per call.
	perIter := func(name string) float64 {
		var sum float64
		for _, d := range sp.durations(name) {
			sum += d
		}
		return sum / float64(lp.iters)
	}
	out["server.new_ms"] = metric{perIter("server.New"), "ms"}
	out["schedule.compile_ms"] = metric{perIter("schedule.Compile"), "ms"}
	out["shard.place_ms"] = metric{perIter("shard.Place"), "ms"}
	out["workload.trace_ms"] = metric{perIter("workload.Trace"), "ms"}
	out["server.run_ms"] = metric{median(sp.durations("server.Run")), "ms"}
	out["shard.run_ms"] = metric{median(sp.durations("shard.Run")), "ms"}

	for _, c := range []struct {
		name, call string
		q          float64
	}{
		{"proto.encode_us_p50", "encode", 0.5},
		{"proto.encode_us_p99", "encode", 0.99},
		{"proto.write_us_p50", "write", 0.5},
		{"proto.read_us_p50", "read", 0.5},
		{"proto.read_us_p99", "read", 0.99},
		{"proto.apply_us_p50", "apply", 0.5},
		{"proto.apply_us_p99", "apply", 0.99},
	} {
		out[c.name] = metric{sp.callQuantile(c.call, c.q), "us"}
	}
	return out
}

// printProfile writes the traced run's layer table to standard error.
func printProfile(lp *layerProfile) {
	fmt.Fprintf(os.Stderr, "perfbench: traced phase, %d iterations\n", lp.iters)
	fmt.Fprintf(os.Stderr, "  %-12s %8s %12s\n", "layer", "cpu %", "alloc MB/it")
	for _, l := range layers {
		fmt.Fprintf(os.Stderr, "  %-12s %8.2f %12.2f\n", l, 100*lp.cpu[l]/lp.cpuTotal, lp.alloc[l]/1e6/float64(lp.iters))
	}
	names := make([]string, 0, len(lp.spanCPU))
	for k := range lp.spanCPU {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(os.Stderr, "  span %-18s %6.2f%% of CPU\n", k, 100*lp.spanCPU[k]/lp.cpuTotal)
	}
}
