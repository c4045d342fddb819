package main

import (
	"fmt"
	"time"

	"repro/internal/blockdev"
	"repro/internal/sim"
	"repro/internal/ssd"
	"repro/internal/stack"
	"repro/internal/workload"
)

// open-loop: the satload experiment's adaptive configuration. Two
// initiators with four Poisson generators each drive 4 KB ordered writes
// over Zipf(0.9) into four one-Optane targets with the saturation knee,
// 2-way replicated, with bounded fabric TX queues, a bounded submit
// window and the batching governor. Latency runs from arrival.
const (
	olInits      = 2
	olStreams    = 4
	olKeys       = region // Zipf keyspace per generator (blocks)
	olTheta      = 0.9
	olLight      = 400.0 // offered kiops of the light point
	olOperating  = 600.0 // offered kiops of the main point
	olLimitUS    = 200   // p99 limit of the rate search
	olWarmup     = 2 * sim.Millisecond
	olWin        = 2 * sim.Millisecond
	olMainWins   = 30 // main span = 60 ms
	olLightSpan  = 60 * sim.Millisecond
	olProbeSpan  = 30 * sim.Millisecond // every other grid point
	olMaxGrowth  = 0.02                 // backlog growth allowed, as a share of arrivals
	olDrainLimit = sim.Second           // give-up bound when draining a point
	olDrainStep  = 200 * sim.Microsecond
)

// olGrid is the offered-rate grid (kiops), ascending; it holds the light
// and operating points.
var olGrid = []float64{olLight, olOperating, 800, 900, 1000, 1100, 1200}

type openLoop struct {
	*base
	zipf *workload.Zipf
	load *olLoad
}

func (w *openLoop) rig() *base { return w.base }

func buildOpenLoop(o runOpts) scenario {
	t0 := time.Now()
	w := &openLoop{base: newBase(o)}
	tgts := make([]stack.TargetConfig, 4)
	for i := range tgts {
		c := ssd.OptaneConfig()
		c.SatKnee = 48
		c.SatFactorMax = 8
		tgts[i] = stack.TargetConfig{SSDs: []ssd.Config{c}}
	}
	cfg := stack.DefaultConfig(stack.ModeRio, tgts...)
	cfg.Replicas = 2
	cfg.Initiators = olInits
	cfg.Streams = olStreams
	cfg.QPs = olStreams
	cfg.Fabric.NumQPs = olStreams
	cfg.Fabric.TxDepth = 256
	cfg.MaxInflight = 512
	cfg.CQEHold = 8 * sim.Microsecond
	cfg.CQEBatch = 32
	cfg.MaxPlug = 32
	cfg.Governor = stack.GovernorConfig{
		Enabled:       true,
		UpOpsPerSec:   400e3,
		DownOpsPerSec: 180e3,
		LowHold:       sim.Microsecond,
		HighHold:      8 * sim.Microsecond,
		LowBatch:      4,
		HighBatch:     32,
		LowPlug:       8,
		HighPlug:      32,
	}
	cfg.Seed = o.seed
	cfg.Trace = clusterTrace(o.traced)
	w.setup.cluster = timed(func() { w.c = stack.New(w.eng, cfg) })
	w.setup.zipf = timed(func() { w.zipf = workload.NewZipf(w.eng.Rand(), olKeys, olTheta) })
	w.setup.total = time.Since(t0)
	return w
}

type olArrival struct {
	lba uint64
	at  sim.Time
	id  int64
}

type olPending struct {
	req *blockdev.Request
	at  sim.Time
}

// olGen is one (initiator, stream) generator and issuer pair.
type olGen struct {
	q        *sim.Queue[olArrival]
	pending  []olPending
	issuing  int // popped from q, inside OrderedWrite
	arrivals int64
}

// olLoad is one offered rate's generators; stop ends arrivals, and the
// issuers drain what is queued.
type olLoad struct {
	gens []*olGen
	stop bool
}

// backlog counts arrivals not yet delivered: queued, being submitted, or
// in flight.
func (l *olLoad) backlog() int64 {
	var n int64
	for _, g := range l.gens {
		n += int64(g.q.Len() + g.issuing)
		for _, pe := range g.pending {
			if !pe.req.Done.Fired() {
				n++
			}
		}
	}
	return n
}

func (l *olLoad) arrivals() int64 {
	var n int64
	for _, g := range l.gens {
		n += g.arrivals
	}
	return n
}

// start begins Poisson arrivals at offered kiops across all generators.
func (w *openLoop) start(offered float64) *olLoad {
	l := &olLoad{}
	rng := w.eng.Rand()
	w.checkRegions(olInits * olStreams)
	meanGap := float64(olInits*olStreams) * 1e9 / (offered * 1e3) // ns
	for ii := 0; ii < olInits; ii++ {
		in := w.c.Init(ii)
		for st := 0; st < olStreams; st++ {
			g := &olGen{q: sim.NewQueue[olArrival](w.eng)}
			l.gens = append(l.gens, g)
			lbaBase := uint64(ii*olStreams+st) * region
			w.eng.Go(fmt.Sprintf("perfbench/olgen%d.%d", ii, st), func(p *sim.Proc) {
				for {
					p.Sleep(sim.Time(rng.ExpFloat64() * meanGap))
					if l.stop {
						return
					}
					g.arrivals++
					w.m.attempt()
					g.q.Push(olArrival{lba: lbaBase + w.zipf.Next(), at: p.Now(), id: w.spans.op()})
				}
			})
			w.eng.Go(fmt.Sprintf("perfbench/olissue%d.%d", ii, st), func(p *sim.Proc) {
				stamp := uint64(ii*olStreams+st+1) << 32
				var lastDeliver sim.Time
				for {
					a := g.q.Pop(p)
					g.issuing = 1
					stamp++
					t0 := p.Now()
					req := in.OrderedWrite(p, st, a.lba, 1, stamp, nil, true, false, false)
					w.spans.add("stack.submit", a.id, t0, p.Now())
					g.issuing = 0
					g.pending = append(g.pending, olPending{req: req, at: a.at})
					// Delivery is FIFO per stream, so the delivered requests
					// are a prefix of pending.
					for len(g.pending) > 0 && g.pending[0].req.Done.Fired() {
						pe := g.pending[0]
						g.pending = g.pending[1:]
						if pe.req.DeliverAt < lastDeliver {
							w.fail.add(1, "generator %d.%d: completion delivered out of order", ii, st)
						}
						lastDeliver = pe.req.DeliverAt
						w.m.record(pe.req.DeliverAt - pe.at)
					}
				}
			})
		}
	}
	return l
}

// measure runs one offered rate: warmup, then span measured in windows
// of olWin (recorded into hw when set). Completions count by delivery
// time, and arrivals must equal completions plus backlog growth (the
// queues are unbounded, so nothing is dropped).
func (w *openLoop) measure(label string, offered float64, span sim.Time, hw *hostWindows) (point, snap, sim.Time, sim.Time) {
	l := w.start(offered)
	w.load = l
	w.advance(w.dur(olWarmup))
	w.flushDelivered(l, 0)
	a0, b0 := l.arrivals(), l.backlog()
	w.spans.clearDurs()
	d, start, end := w.measureSpan(int(span/olWin), w.dur(olWin), hw)
	// Count the span's deliveries the issuers have not pruned yet.
	w.m.on = true
	w.flushDelivered(l, start)
	w.m.on = false
	arrived, growth := l.arrivals()-a0, l.backlog()-b0
	pt := newPoint(label, offered, &w.m, end-start)
	pt.Backlog = growth
	if arrived != w.m.ops+growth {
		w.fail.add(1, "%s: %d arrivals != %d completed + %d backlog growth", label, arrived, w.m.ops, growth)
	}
	pt.Pass = pt.P99US <= olLimitUS && float64(growth) <= olMaxGrowth*float64(arrived)
	return pt, d, start, end
}

// flushDelivered records the delivered prefix of every generator's
// pending list (the issuers prune lazily) whose delivery is after from.
func (w *openLoop) flushDelivered(l *olLoad, from sim.Time) {
	for _, g := range l.gens {
		for len(g.pending) > 0 && g.pending[0].req.Done.Fired() {
			pe := g.pending[0]
			g.pending = g.pending[1:]
			if pe.req.DeliverAt > from {
				w.m.record(pe.req.DeliverAt - pe.at)
			}
		}
	}
}

// drain stops the current load and runs until its backlog is delivered.
func (w *openLoop) drain() {
	l := w.load
	l.stop = true
	for t := sim.Time(0); l.backlog() > 0 && t < olDrainLimit; t += olDrainStep {
		w.advance(olDrainStep)
	}
	if n := l.backlog(); n > 0 {
		w.fail.add(n, "%d arrivals still undelivered after draining", n)
	}
}

func (w *openLoop) run(hw *hostWindows) *outcome {
	o := &outcome{limitUS: olLimitUS, warmup: w.dur(olWarmup), hostWin: w.dur(olWin)}
	for _, rate := range olGrid {
		span, win := olProbeSpan, (*hostWindows)(nil)
		switch rate {
		case olLight:
			span = olLightSpan
		case olOperating:
			span, win = olMainWins*olWin, hw
		}
		pt, d, start, end := w.measure(fmt.Sprintf("offered%.0f", rate), rate, span, win)
		if rate == olOperating {
			o.main = len(o.points)
			o.delta, o.start, o.end = d, start, end
			o.userBlocks = float64(pt.Ops)
			o.spans = w.spans.takeDurs()
		}
		o.points = append(o.points, pt)
		w.drain()
		// Past the operating point the search ends at the first rate that
		// misses the limit.
		if rate > olOperating && !pt.Pass {
			break
		}
	}
	w.fail.add(int64(w.c.OrderAudit()), "OrderAudit violations")
	return o
}

func (w *openLoop) extend(deadline time.Time, hw *hostWindows) {
	w.start(olOperating)
	w.advance(w.dur(olWarmup))
	w.extendWindows(w.dur(olWin), deadline, hw)
	w.fail.add(int64(w.c.OrderAudit()), "OrderAudit violations")
}
