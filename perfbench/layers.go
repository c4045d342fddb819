package main

import (
	"repro/internal/sim"
	"repro/internal/stack"
	"repro/internal/trace"
)

// appStats are the file-system and KV counters the per-layer metrics use,
// summed over tenants.
type appStats struct {
	fsyncs, commits, checkpoints         int64
	puts, gets, negHits, walBytes, comps int64
}

func (a appStats) sub(o appStats) appStats {
	return appStats{
		fsyncs: a.fsyncs - o.fsyncs, commits: a.commits - o.commits,
		checkpoints: a.checkpoints - o.checkpoints,
		puts:        a.puts - o.puts, gets: a.gets - o.gets,
		negHits: a.negHits - o.negHits, walBytes: a.walBytes - o.walBytes,
		comps: a.comps - o.comps,
	}
}

// devStats sums the SSD counters of every device. busy is the media time
// the counters imply (blocks written and read times the nominal per-block
// latency, plus the saturation model's extra time); the device keeps its
// own channel busy integral private.
type devStats struct {
	written, reads, flushes int64
	satStall, busy          sim.Time
	channels                int
}

func (d devStats) sub(o devStats) devStats {
	return devStats{
		written: d.written - o.written, reads: d.reads - o.reads,
		flushes: d.flushes - o.flushes, satStall: d.satStall - o.satStall,
		busy: d.busy - o.busy, channels: d.channels,
	}
}

// snap is every layer counter at one instant; sub gives a span's deltas.
type snap struct {
	at           sim.Time
	cs           stack.ClusterStats
	ts           stack.TargetStats
	iBusy, tBusy sim.Time
	rc           stack.RCacheStats
	dev          devStats
	app          appStats
}

func (b *base) snap() snap {
	c := b.c
	s := snap{
		at: b.eng.Now(), cs: c.StatsAll(), ts: c.TargetStatsAll(),
		iBusy: c.InitiatorUtil().Busy, tBusy: c.TargetUtil().Busy,
		rc: c.ReadCacheStatsAll(),
	}
	for i := 0; i < c.Targets(); i++ {
		for j := 0; j < len(c.Config().Targets[i].SSDs); j++ {
			d := c.Target(i).SSD(j)
			st, cfg := d.Stats(), d.Config()
			s.dev.written += st.WrittenBlks
			s.dev.reads += st.Reads
			s.dev.flushes += st.Flushes
			s.dev.satStall += st.SatStall
			s.dev.busy += sim.Time(st.WrittenBlks)*cfg.MediaWriteLat +
				sim.Time(st.Reads)*cfg.MediaReadLat + st.SatStall
			s.dev.channels += cfg.Channels
		}
	}
	if b.app != nil {
		s.app = b.app()
	}
	return s
}

func (s snap) sub(o snap) snap {
	return snap{
		at: s.at - o.at, cs: s.cs.Sub(o.cs), ts: s.ts.Sub(o.ts),
		iBusy: s.iBusy - o.iBusy, tBusy: s.tBusy - o.tBusy,
		rc: s.rc.Sub(o.rc), dev: s.dev.sub(o.dev), app: s.app.sub(o.app),
	}
}

func ratio(n, d float64) float64 {
	if d == 0 {
		return 0
	}
	return n / d
}

// counterMetrics derives the counter-based per-layer metrics from the
// main span's deltas. ops is the workload's end-to-end op count and
// userBlocks the 4 KB blocks of payload the application wrote.
func counterMetrics(d snap, ops, userBlocks float64, out map[string]float64) {
	cs, ts, dev, app := d.cs, d.ts, d.dev, d.app
	us := func(t sim.Time) float64 { return float64(t) / 1e3 }

	out["stack.batch_occupancy"] = cs.Batch.Occupancy()
	out["stack.fused_per_op"] = ratio(float64(cs.FusedCmds), ops)
	out["stack.cpl_msgs_per_op"] = ratio(float64(cs.CplBatch.Rings), ops)
	out["stack.reap_cpu_us_per_op"] = ratio(us(cs.ReapCPU), ops)
	out["stack.pool_allocs_per_req"] = cs.AllocsPerReq()
	out["stack.tx_msgs_per_op"] = ratio(float64(cs.TxMsgs), ops)
	out["stack.tx_bytes_per_op"] = ratio(float64(cs.TxBytes), ops)
	out["stack.submit_stalls_per_kop"] = ratio(1e3*float64(cs.SubmitStalls), ops)
	out["stack.gov_switches"] = float64(cs.GovSwitches + ts.GovSwitches)

	cmds := float64(ts.Commands)
	out["target.cmds_per_capsule"] = ratio(cmds, float64(ts.Capsules))
	out["target.cqes_per_response"] = ratio(float64(ts.CQEs), float64(ts.Responses))
	out["target.cqe_timer_flushes_per_kcmd"] = ratio(1e3*float64(ts.CQETimerFlushes), cmds)
	out["target.allocs_per_cmd"] = ts.AllocsPerCmd()
	out["order.holdbacks_per_kcmd"] = ratio(1e3*float64(ts.Holdbacks), cmds)
	out["core.pmr_appends_per_cmd"] = ratio(float64(ts.PMRAppends), cmds)
	out["fabric.wire_msgs_per_op"] = ratio(float64(cs.WireMessages), ops)

	out["ssd.blocks_per_user_block"] = ratio(float64(dev.written), userBlocks)
	out["ssd.flushes_per_kop"] = ratio(1e3*float64(dev.flushes), ops)
	out["ssd.channel_util"] = ratio(float64(dev.busy), float64(dev.channels)*float64(d.at))
	out["ssd.sat_stall_us_per_op"] = ratio(us(dev.satStall), ops)

	out["rcache.hit_rate"] = d.rc.HitRate()
	out["rcache.evictions_per_op"] = ratio(float64(d.rc.Evictions), ops)
	out["rcache.invalidations_per_op"] = ratio(float64(d.rc.Invalidations), ops)
	out["rcache.read_msgs_per_op"] = ratio(float64(cs.ReadMsgs), ops)

	out["fs.fsyncs_per_op"] = ratio(float64(app.fsyncs), ops)
	out["fs.commits_per_op"] = ratio(float64(app.commits), ops)
	out["fs.checkpoints_per_kop"] = ratio(1e3*float64(app.checkpoints), ops)
	out["kv.negative_hit_rate"] = ratio(float64(app.negHits), float64(app.gets))
	out["kv.wal_bytes_per_put"] = ratio(float64(app.walBytes), float64(app.puts))
	out["kv.compactions_per_kop"] = ratio(1e3*float64(app.comps), ops)
}

// traceMetrics derives the stage and wait metrics from the tracer's
// retained spans submitted inside [start, end]: exact stage quantiles,
// and each wait's mean per sampled op.
func traceMetrics(recs []trace.SpanRecord, start, end sim.Time, out map[string]float64) int {
	var stages [trace.NumStages]samples
	var waits [trace.NumWaits]sim.Time
	n := 0
	for _, r := range recs {
		if r.Dropped || r.MS[trace.MSubmit] <= start || r.MS[trace.MSubmit] > end {
			continue
		}
		n++
		for i := 0; i < trace.NumStages; i++ {
			stages[i] = append(stages[i], int64(r.StageDur(i)))
		}
		for w := range waits {
			waits[w] += r.Waits[w]
		}
	}
	for i := 0; i < trace.NumStages; i++ {
		name := "trace.stage_us." + trace.StageName(i)
		out[name+".p50"] = stages[i].quantileUS(0.50)
		out[name+".p99"] = stages[i].quantileUS(0.99)
	}
	for w := trace.Wait(0); w < trace.NumWaits; w++ {
		out["trace.wait_us."+trace.WaitName(w)] = ratio(float64(waits[w])/1e3, float64(n))
	}
	return n
}
