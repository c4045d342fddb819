package main

import (
	"time"

	"repro/internal/sim"
	"repro/internal/trace"
)

// scenario is one workload instance on one freshly built cluster.
type scenario interface {
	rig() *base
	// run executes the deterministic load points and returns them; the
	// main point's windows append their host cost to hw.
	run(hw *hostWindows) *outcome
	// extend keeps the main load running, one window at a time, until the
	// host clock passes deadline (host-clock samples only).
	extend(deadline time.Time, hw *hostWindows)
}

// workloadSpec is one named benchmark workload.
type workloadSpec struct {
	name string
	why  string
	// setupReps is how many times an untraced run builds the cluster; it
	// reports the median set-up time.
	setupReps int
	build     func(o runOpts) scenario
}

// runOpts selects how a scenario is built: its seed, whether it is the
// traced rig, and tiny (every simulated span a tenth as long; self-test
// only).
type runOpts struct {
	seed   int64
	traced bool
	tiny   bool
}

var workloads = []workloadSpec{
	{
		name:      "ordered-write",
		why:       "4 KB ordered block writes, closed loop: exercises stack dispatch, order, core, fabric and ssd; bypasses fs, kv, the read cache, replication and the governor",
		setupReps: 25,
		build:     buildOrderedWrite,
	},
	{
		name:      "kv-mixed",
		why:       "YCSB-A KV mix on RioFS over 2-way replicas with the block cache, closed loop: exercises kv, fs journaling, quorum writes, rcache and Zipf set-up",
		setupReps: 3,
		build:     buildKVMixed,
	},
	{
		name:      "open-loop",
		why:       "Poisson 4 KB ordered writes at fixed offered rates and a rate search: exercises the governor, submit gate, fabric TX stalls and SSD saturation",
		setupReps: 5,
		build:     buildOpenLoop,
	},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// point is one measured load point.
type point struct {
	Label   string  `json:"label"`
	Load    float64 `json:"load"` // clients (closed loop) or offered kiops (open loop)
	Ops     int64   `json:"ops"`
	Samples int     `json:"samples"`
	KIOPS   float64 `json:"kiops"`
	P50US   float64 `json:"p50_us"`
	P99US   float64 `json:"p99_us"`
	// Backlog is the open-loop backlog growth over the span.
	Backlog int64 `json:"backlog_growth"`
	Pass    bool  `json:"meets_slo"`
}

func newPoint(label string, load float64, m *meter, elapsed sim.Time) point {
	return point{
		Label: label, Load: load, Ops: m.ops, Samples: len(m.lat),
		KIOPS: float64(m.ops) / elapsed.Seconds() / 1e3,
		P50US: m.lat.quantileUS(0.50), P99US: m.lat.quantileUS(0.99),
	}
}

// outcome is a scenario's deterministic result.
type outcome struct {
	points  []point // ascending load; points[0] is the light point
	main    int     // index of the main point
	limitUS float64 // p99 limit of the SLO search
	// warmup precedes every point; hostWin is the main span's window.
	warmup, hostWin sim.Time
	// delta holds the layer counters over the main span [start, end].
	delta      snap
	start, end sim.Time
	// userBlocks is the 4 KB blocks of payload the application wrote
	// during the main span (the write-amplification base).
	userBlocks float64
	// spans are the benchmark's span durations over the main span
	// (traced rig only).
	spans map[string]samples
}

// sloKIOPS estimates the highest delivered kiops that meets the p99
// limit. It scans up the load grid to the first point that misses (p99
// over the limit, or a growing backlog) and interpolates linearly in p99
// between that point and the last one that met the limit, so the result
// moves smoothly with the tail instead of jumping a grid step. A point
// that missed on backlog alone contributes nothing past the last pass.
func (o *outcome) sloKIOPS() float64 {
	for j, p := range o.points {
		if p.Pass {
			continue
		}
		if j == 0 {
			return 0
		}
		q := o.points[j-1]
		if p.P99US <= o.limitUS || p.P99US <= q.P99US {
			return q.KIOPS
		}
		f := (o.limitUS - q.P99US) / (p.P99US - q.P99US)
		return q.KIOPS + f*(p.KIOPS-q.KIOPS)
	}
	return o.points[len(o.points)-1].KIOPS
}

// simMetrics returns the end-to-end metrics of the simulated clock.
func (o *outcome) simMetrics() map[string]float64 {
	mp := o.points[o.main]
	ops := float64(mp.Ops)
	return map[string]float64{
		"kiops":              mp.KIOPS,
		"p50_us":             mp.P50US,
		"p99_us":             mp.P99US,
		"p99_us.light":       o.points[0].P99US,
		"slo_kiops":          o.sloKIOPS(),
		"init_cpu_us_per_op": ratio(float64(o.delta.iBusy)/1e3, ops),
		"tgt_cpu_us_per_op":  ratio(float64(o.delta.tBusy)/1e3, ops),
	}
}

// measureSpan runs n windows of win with the meter keeping latencies and
// returns the counter deltas; with hw set each window's host cost is
// recorded.
func (b *base) measureSpan(n int, win sim.Time, hw *hostWindows) (snap, sim.Time, sim.Time) {
	s0 := b.snap()
	b.m.reset(true)
	for i := 0; i < n; i++ {
		if hw != nil {
			b.window(win, hw)
		} else {
			b.advance(win)
		}
	}
	b.m.on = false
	b.attempted += b.m.attempts
	s1 := b.snap()
	return s1.sub(s0), s0.at, s1.at
}

// extendWindows runs host-only windows of win until deadline.
func (b *base) extendWindows(win sim.Time, deadline time.Time, hw *hostWindows) {
	b.m.reset(false)
	for time.Now().Before(deadline) && b.window(win, hw) {
	}
	b.m.on = false
	b.attempted += b.m.attempts
}

const (
	region     = uint64(1 << 20) // private LBA area per stream (blocks)
	traceEvery = 4               // traced rig: 1 in N requests per shard
	traceKeep  = 1 << 16         // traced rig: retained stage spans
)

// clusterTrace returns the stack's trace setting for the traced rig.
func clusterTrace(traced bool) trace.Config {
	if !traced {
		return trace.Config{}
	}
	return trace.Config{SampleEvery: traceEvery, Keep: traceKeep}
}

// closedGen is one set of closed-loop clients; stop makes each client
// finish its outstanding ops and exit.
type closedGen struct {
	stop bool
	live int
}

// stopClosed stops g and runs the engine until every client has exited.
func (b *base) stopClosed(g *closedGen) {
	g.stop = true
	for i := 0; g.live > 0 && i < 1000; i++ {
		b.advance(100 * sim.Microsecond)
	}
	if g.live > 0 {
		b.fail.add(int64(g.live), "%d closed-loop clients did not drain", g.live)
	}
}

// checkRegions fails the run when n private regions do not fit in the
// volume.
func (b *base) checkRegions(n int) {
	if need, have := uint64(n)*region, b.c.Volume().Blocks(); need > have {
		b.fail.add(1, "%d regions need %d blocks, the volume has %d", n, need, have)
	}
}

// indices returns 0, 1, ..., n-1.
func indices(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	return s
}
