package main

import (
	"fmt"
	"time"

	"repro/internal/blockdev"
	"repro/internal/sim"
	"repro/internal/stack"
)

// ordered-write: the paper's Fig. 10 point. One initiator, two one-Optane
// targets, Rio mode and the stock config; 8 threads each keep a window of
// 8 random 4 KB ordered writes outstanding on their own stream.
const (
	owThreads   = 8
	owWindow    = 8
	owLimitUS   = 500 // p99 limit of the closed-loop SLO check
	owWarmup    = 2 * sim.Millisecond
	owWin       = 2 * sim.Millisecond // host window
	owMainWins  = 24                  // main span = 48 ms
	owLightSpan = 60 * sim.Millisecond
)

type orderedWrite struct{ *base }

func (w *orderedWrite) rig() *base { return w.base }

func buildOrderedWrite(o runOpts) scenario {
	t0 := time.Now()
	w := &orderedWrite{base: newBase(o)}
	cfg := stack.DefaultConfig(stack.ModeRio, stack.OptaneTarget(), stack.OptaneTarget())
	cfg.Seed = o.seed
	cfg.Trace = clusterTrace(o.traced)
	w.setup.cluster = timed(func() { w.c = stack.New(w.eng, cfg) })
	w.setup.total = time.Since(t0)
	return w
}

// blockWriters starts one writer per stream on initiator in; the i-th
// writes the i-th region of the volume. Each keeps up to window random
// 4 KB ordered writes outstanding, reaps completions in submission order
// and checks that their delivery times are too.
func (b *base) blockWriters(in *stack.Initiator, streams []int, window int) *closedGen {
	g := &closedGen{live: len(streams)}
	b.checkRegions(len(streams))
	for i, stream := range streams {
		b.eng.Go(fmt.Sprintf("perfbench/writer%d", stream), func(p *sim.Proc) {
			rng := b.eng.Rand()
			lbaBase := uint64(i) * region
			stamp := uint64(stream+1) << 32
			var pending []*blockdev.Request
			var ids []int64
			var lastDeliver sim.Time
			reap := func(force bool) {
				for len(pending) > 0 && (force || pending[0].Done.Fired() || len(pending) >= window) {
					r, id := pending[0], ids[0]
					pending, ids = pending[1:], ids[1:]
					t0 := p.Now()
					in.Wait(p, r)
					b.spans.add("stack.wait", id, t0, p.Now())
					if r.DeliverAt < lastDeliver {
						b.fail.add(1, "stream %d: completion delivered at %v after a later submission's at %v",
							stream, r.DeliverAt, lastDeliver)
					}
					lastDeliver = r.DeliverAt
					b.m.record(r.DeliverAt - r.SubmitAt)
				}
			}
			for !g.stop {
				stamp++
				lba := lbaBase + uint64(rng.Int63n(int64(region)))
				id := b.spans.op()
				t0 := p.Now()
				req := in.OrderedWrite(p, stream, lba, 1, stamp, nil, true, false, false)
				b.spans.add("stack.submit", id, t0, p.Now())
				b.m.attempt()
				pending, ids = append(pending, req), append(ids, id)
				reap(false)
			}
			reap(true)
			g.live--
		})
	}
	return g
}

func (w *orderedWrite) run(hw *hostWindows) *outcome {
	o := &outcome{limitUS: owLimitUS, warmup: w.dur(owWarmup), hostWin: w.dur(owWin)}
	in := w.c.Init(0)

	// Light point: one client with one write outstanding. It runs on
	// stream 0, which the main load then reuses: a stream left idle after
	// traffic wedges this cluster some 60k ops later.
	light := w.blockWriters(in, []int{0}, 1)
	w.advance(w.dur(owWarmup))
	_, s0, s1 := w.measureSpan(1, w.dur(owLightSpan), nil)
	o.points = append(o.points, newPoint("light", 1, &w.m, s1-s0))
	w.stopClosed(light)

	w.blockWriters(in, indices(owThreads), owWindow)
	w.advance(w.dur(owWarmup))
	w.spans.clearDurs()
	o.delta, o.start, o.end = w.measureSpan(owMainWins, w.dur(owWin), hw)
	o.spans = w.spans.takeDurs()
	o.main = len(o.points)
	o.points = append(o.points, newPoint("full", owThreads, &w.m, o.end-o.start))
	o.userBlocks = float64(w.m.ops)
	for i := range o.points {
		o.points[i].Pass = o.points[i].P99US <= o.limitUS
	}
	w.audit()
	return o
}

func (w *orderedWrite) extend(deadline time.Time, hw *hostWindows) {
	w.extendWindows(w.dur(owWin), deadline, hw)
	w.audit()
}

// audit checks the ordering engine's dense chains and every target's
// submission gate.
func (w *orderedWrite) audit() {
	w.fail.add(int64(w.c.OrderAudit()), "OrderAudit violations")
	for i := 0; i < w.c.Targets(); i++ {
		w.fail.add(int64(w.c.Target(i).GateAudit()), "target %d GateAudit violations", i)
	}
}
