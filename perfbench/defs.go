package main

import (
	"fmt"

	"repro/internal/trace"
)

// metricDef declares one reported metric. BENCHMARK.json at the
// repository root carries the same names, units and directions (the
// self-test checks that the two agree); Bound is the share of the
// baseline median an end-to-end metric may worsen by before a change
// counts as a regression.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	Bound  float64
}

// endToEnd are the untraced run's metrics: the simulated clock first
// (what the modelled storage system delivers), then the host clock (what
// the simulator costs to run).
var endToEnd = []metricDef{
	{"kiops", "kiops", "higher", 0.05},
	{"p50_us", "us", "lower", 0.1},
	{"p99_us", "us", "lower", 0.15},
	{"p99_us.light", "us", "lower", 0.15},
	{"slo_kiops", "kiops", "higher", 0.2},
	{"init_cpu_us_per_op", "us/op", "lower", 0.05},
	{"tgt_cpu_us_per_op", "us/op", "lower", 0.05},
	{"host_ns_per_op", "ns/op", "lower", 0.2},
	{"host_allocs_per_op", "count/op", "lower", 0.1},
	{"host_bytes_per_op", "B/op", "lower", 0.1},
	{"heap_peak_mb", "MB", "lower", 0.2},
	{"setup_s", "s", "lower", 0.25},
}

// cpuCategories are the buckets host CPU profile samples are attributed
// to (see attribute in pprof.go).
var cpuCategories = []string{
	"sim", "handoff", "alloc_gc", "stack", "order", "core", "fabric",
	"ssd", "fs", "kv", "workload", "metrics", "other",
}

// perLayer are the traced run's metrics, named <module>.<name>.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var out []metricDef
	add := func(name, unit, better string) {
		out = append(out, metricDef{Name: name, Unit: unit, Better: better})
	}
	for _, s := range []string{"cluster", "mount", "preload", "zipf"} {
		add("setup."+s+"_s", "s", "lower")
	}
	add("sim.run_host_s", "s", "lower")
	for _, c := range cpuCategories {
		add("host.cpu_share."+c, "share", "lower")
	}
	add("host.gc_cycles_per_kop", "count/kop", "lower")

	for _, q := range []string{"p50", "p99"} {
		add("stack.submit_us."+q, "us", "lower")
	}
	for _, q := range []string{"p50", "p99"} {
		add("stack.wait_us."+q, "us", "lower")
	}
	add("stack.batch_occupancy", "cmds/capsule", "higher")
	add("stack.fused_per_op", "count/op", "higher")
	add("stack.cpl_msgs_per_op", "count/op", "lower")
	add("stack.reap_cpu_us_per_op", "us/op", "lower")
	add("stack.pool_allocs_per_req", "count/op", "lower")
	add("stack.tx_msgs_per_op", "count/op", "lower")
	add("stack.tx_bytes_per_op", "B/op", "lower")
	add("stack.submit_stalls_per_kop", "count/kop", "lower")
	add("stack.gov_switches", "count", "lower")

	add("target.cmds_per_capsule", "cmds/capsule", "higher")
	add("target.cqes_per_response", "cqes/capsule", "higher")
	add("target.cqe_timer_flushes_per_kcmd", "count/kcmd", "lower")
	add("target.allocs_per_cmd", "count/cmd", "lower")
	add("order.holdbacks_per_kcmd", "count/kcmd", "lower")
	add("core.pmr_appends_per_cmd", "count/cmd", "lower")
	add("fabric.wire_msgs_per_op", "count/op", "lower")

	add("ssd.blocks_per_user_block", "ratio", "lower")
	add("ssd.flushes_per_kop", "count/kop", "lower")
	add("ssd.channel_util", "share", "lower")
	add("ssd.sat_stall_us_per_op", "us/op", "lower")

	add("rcache.hit_rate", "share", "higher")
	add("rcache.evictions_per_op", "count/op", "lower")
	add("rcache.invalidations_per_op", "count/op", "lower")
	add("rcache.read_msgs_per_op", "count/op", "lower")

	add("fs.fsyncs_per_op", "count/op", "lower")
	add("fs.commits_per_op", "count/op", "lower")
	add("fs.checkpoints_per_kop", "count/kop", "lower")

	for _, op := range []string{"get", "put"} {
		for _, q := range []string{"p50", "p99"} {
			add(fmt.Sprintf("kv.%s_us.%s", op, q), "us", "lower")
		}
	}
	add("kv.negative_hit_rate", "share", "higher")
	add("kv.wal_bytes_per_put", "B/op", "lower")
	add("kv.compactions_per_kop", "count/kop", "lower")

	for i := 0; i < trace.NumStages; i++ {
		for _, q := range []string{"p50", "p99"} {
			add(fmt.Sprintf("trace.stage_us.%s.%s", trace.StageName(i), q), "us", "lower")
		}
	}
	for w := trace.Wait(0); w < trace.NumWaits; w++ {
		add("trace.wait_us."+trace.WaitName(w), "us/op", "lower")
	}
	add("trace.overhead_pct", "%", "lower")
	return out
}
