package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"time"

	"repro/internal/sim"
	"repro/internal/stack"
)

// samples holds exact per-op latencies (ns) for nearest-rank quantiles.
type samples []int64

// quantileUS returns the nearest-rank q-quantile in microseconds.
func (s samples) quantileUS(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	c := slices.Clone(s)
	slices.Sort(c)
	i := max(0, min(int(math.Ceil(q*float64(len(c))))-1, len(c)-1))
	return float64(c[i]) / 1e3
}

// meter counts the ops of the current load and, while keepLat is set,
// keeps their latencies.
type meter struct {
	on       bool
	keepLat  bool
	ops      int64
	attempts int64
	lat      samples
}

func (m *meter) record(l sim.Time) {
	if !m.on {
		return
	}
	m.ops++
	if m.keepLat {
		m.lat = append(m.lat, int64(l))
	}
}

// count records a completed op whose latency is not timed.
func (m *meter) count() {
	if m.on {
		m.ops++
	}
}

func (m *meter) attempt() {
	if m.on {
		m.attempts++
	}
}

// reset starts a new measured span.
func (m *meter) reset(keepLat bool) {
	*m = meter{on: true, keepLat: keepLat}
}

// failures counts correctness violations, keeping the first messages.
type failures struct {
	n    int64
	msgs []string
}

func (f *failures) add(n int64, format string, args ...any) {
	if n <= 0 {
		return
	}
	f.n += n
	if len(f.msgs) < 20 {
		f.msgs = append(f.msgs, fmt.Sprintf(format, args...))
	}
}

// span is one benchmark-recorded sim-time interval around a call into a
// layer. Spans of one op share Op.
type span struct {
	Name  string `json:"name"`
	Op    int64  `json:"op"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
}

// spanLog collects the benchmark's own spans in the traced run; the nil
// log (untraced runs) records nothing.
type spanLog struct {
	durs map[string]samples
	keep []span
	next int64
}

const spanKeep = 20000 // spans written to the dump file

func newSpanLog() *spanLog { return &spanLog{durs: map[string]samples{}} }

// op returns a fresh op id (0 on the nil log).
func (l *spanLog) op() int64 {
	if l == nil {
		return 0
	}
	l.next++
	return l.next
}

func (l *spanLog) add(name string, op int64, start, end sim.Time) {
	if l == nil {
		return
	}
	l.durs[name] = append(l.durs[name], int64(end-start))
	if len(l.keep) < spanKeep {
		l.keep = append(l.keep, span{name, op, int64(start), int64(end)})
	}
}

// clearDurs drops the durations recorded so far (spans outside the main
// span), keeping the dump.
func (l *spanLog) clearDurs() {
	if l != nil {
		l.durs = map[string]samples{}
	}
}

// takeDurs returns the durations recorded since clearDurs.
func (l *spanLog) takeDurs() map[string]samples {
	if l == nil {
		return nil
	}
	d := l.durs
	l.clearDurs()
	return d
}

// base is the state every workload shares: the engine and cluster, the
// host time spent inside the engine, the op meter, correctness failures
// and (traced rig only) the benchmark's spans.
type base struct {
	eng     *sim.Engine
	c       *stack.Cluster
	runHost time.Duration
	m       meter
	fail    failures
	spans   *spanLog
	setup   setupTimes
	// attempted counts the ops issued inside measured spans.
	attempted int64
	// app returns the file-system and KV counters summed over tenants
	// (nil for block-level workloads).
	app  func() appStats
	tiny bool
}

// dur scales a simulated span length (a tenth in tiny runs).
func (b *base) dur(d sim.Time) sim.Time {
	if b.tiny {
		return d / 10
	}
	return d
}

// setupTimes is the host time of each set-up step.
type setupTimes struct {
	total, cluster, mount, preload, zipf time.Duration
}

func newBase(o runOpts) *base {
	b := &base{eng: sim.New(o.seed), tiny: o.tiny}
	if o.traced {
		b.spans = newSpanLog()
	}
	return b
}

// shutdown stops every simulated process. Processes spawned but not yet
// scheduled are run up to their first park, since Engine.Shutdown stops
// parked processes only and the others would keep the cluster alive.
func (b *base) shutdown() {
	b.eng.RunUntil(b.eng.Now())
	b.eng.Shutdown()
}

// advance runs the engine for d of simulated time.
func (b *base) advance(d sim.Time) {
	t0 := time.Now()
	b.eng.RunUntil(b.eng.Now() + d)
	b.runHost += time.Since(t0)
}

// timed runs f and returns its host time.
func timed(f func()) time.Duration {
	t0 := time.Now()
	f()
	return time.Since(t0)
}

// A shared virtual host can change CPU speed from one second to the next:
// on a 2-vCPU x86-64 Linux VM the same fixed loop took 3.0 ms or 5.0 ms,
// in user CPU time as in wall time. Host times are therefore scaled to a
// reference speed: next to every timed span the benchmark times
// calibrate, a fixed piece of map, arithmetic and allocation work, and
// multiplies the span by calibrationRef over that time.
const calibrationRef = time.Millisecond

var calibrationSink uint64

// calibrate runs the fixed reference work and returns its wall time.
func calibrate() time.Duration {
	t0 := time.Now()
	m := make(map[uint64]uint64, 1024)
	x := uint64(1)
	for i := 0; i < 40000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		m[x%4096] += x
		if i%8 == 0 {
			b := make([]byte, 64)
			b[0] = byte(x)
			calibrationSink += uint64(b[0])
		}
	}
	calibrationSink += uint64(len(m))
	return time.Since(t0)
}

// scaled returns d at the reference speed, given the calibration time
// measured next to it.
func scaled(d, cal time.Duration) time.Duration {
	return time.Duration(float64(d) * float64(calibrationRef) / float64(cal))
}

// hostWindow is the host cost of one window of the main load; scaled is
// its wall time at the reference speed.
type hostWindow struct {
	wall    time.Duration
	scaled  time.Duration
	ops     int64
	mallocs uint64
	bytes   uint64
	gcs     uint32
}

// hostWindows accumulates the main load's windows.
type hostWindows struct {
	ws []hostWindow
}

type hostMark struct {
	at      time.Time
	ops     int64
	mallocs uint64
	bytes   uint64
	gcs     uint32
}

// hostSamples are the runtime counters a window reads; runtime/metrics
// reads them without stopping the world, unlike runtime.ReadMemStats.
var hostSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

func (b *base) mark() hostMark {
	metrics.Read(hostSamples)
	return hostMark{
		at: time.Now(), ops: b.m.ops,
		mallocs: hostSamples[0].Value.Uint64(),
		bytes:   hostSamples[1].Value.Uint64(),
		gcs:     uint32(hostSamples[2].Value.Uint64()),
	}
}

// window runs one window of d and appends its host cost to hw. A window
// in which the load completes nothing means the cluster wedged: it fails
// the run and window returns false.
func (b *base) window(d sim.Time, hw *hostWindows) bool {
	cal := calibrate()
	m0 := b.mark()
	b.advance(d)
	m1 := b.mark()
	if m1.ops == m0.ops {
		b.fail.add(1, "no op completed in the %v window ending at %v", d, b.eng.Now())
		return false
	}
	hw.ws = append(hw.ws, hostWindow{
		wall:    m1.at.Sub(m0.at),
		scaled:  scaled(m1.at.Sub(m0.at), cal),
		ops:     m1.ops - m0.ops,
		mallocs: m1.mallocs - m0.mallocs,
		bytes:   m1.bytes - m0.bytes,
		gcs:     m1.gcs - m0.gcs,
	})
	return true
}

// nsPerOp returns the median over windows of wall ns per completed op,
// at the reference speed when scaled is set.
func (hw *hostWindows) nsPerOp(scaled bool) float64 {
	var v []float64
	for _, w := range hw.ws {
		d := w.wall
		if scaled {
			d = w.scaled
		}
		if w.ops > 0 {
			v = append(v, float64(d.Nanoseconds())/float64(w.ops))
		}
	}
	return median(v)
}

// totals sums every window.
func (hw *hostWindows) totals() hostWindow {
	var t hostWindow
	for _, w := range hw.ws {
		t.wall += w.wall
		t.scaled += w.scaled
		t.ops += w.ops
		t.mallocs += w.mallocs
		t.bytes += w.bytes
		t.gcs += w.gcs
	}
	return t
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	c := slices.Clone(v)
	slices.Sort(c)
	n := len(c)
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

// liveHeapMB collects garbage and returns the live heap in MB.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
