package sim

import (
	"fmt"
	"math"
	"math/rand"
)

// Time is a point on (or a span of) the simulated clock, in nanoseconds.
type Time int64

// Convenient duration units.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000
	Millisecond Time = 1000 * 1000
	Second      Time = 1000 * 1000 * 1000
)

// String formats a Time with an adaptive unit, e.g. "12.5us" or "3.2ms".
func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", float64(t)/float64(Second))
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.3fus", float64(t)/float64(Microsecond))
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}

// Seconds returns t as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// An event is one entry of the engine's heap. It either runs fn or, when
// proc is set, resumes that process; a resume that came from wake also
// clears the proc's wakeQueued flag. Events are stored by value, so
// scheduling a resume allocates nothing.
type event struct {
	at   Time
	seq  uint64 // tie-breaker: FIFO among same-time events
	fn   func()
	proc *Proc
	wake bool
}

// before is the heap order: (at, seq). seq is unique, so it is total.
func (a *event) before(b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// eventHeap is a 4-ary min-heap of events ordered by before. Sifts move
// a hole rather than swapping, so each level costs one event copy.
type eventHeap []event

func (h *eventHeap) push(ev event) {
	q := append(*h, event{})
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !ev.before(&q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = ev
	*h = q
}

func (h *eventHeap) pop() event {
	q := *h
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q[n] = event{} // drop the fn/proc references
	q = q[:n]
	*h = q
	if n == 0 {
		return top
	}
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		least := first
		for c := first + 1; c < first+4 && c < n; c++ {
			if q[c].before(&q[least]) {
				least = c
			}
		}
		if !q[least].before(&last) {
			break
		}
		q[i] = q[least]
		i = least
	}
	q[i] = last
	return top
}

// Engine is a discrete-event simulator. The zero value is not usable; call
// New.
type Engine struct {
	now     Time
	events  eventHeap
	seq     uint64
	rng     *rand.Rand
	live    map[*Proc]struct{}
	stopped bool
	fault   interface{} // panic value captured from a proc
}

// New creates an engine with a deterministic random stream derived from
// seed.
func New(seed int64) *Engine {
	return &Engine{
		rng:  rand.New(rand.NewSource(seed)),
		live: make(map[*Proc]struct{}),
	}
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic random stream. It must only be
// used from simulation context (callbacks or procs).
func (e *Engine) Rand() *rand.Rand { return e.rng }

// At schedules fn to run d nanoseconds from now. d must be >= 0. fn runs on
// the engine goroutine and must not block; use Go for blocking work.
func (e *Engine) At(d Time, fn func()) {
	e.schedule(d, event{fn: fn})
}

// schedule stamps ev with its time and the next sequence number and
// queues it.
func (e *Engine) schedule(d Time, ev event) {
	if d < 0 {
		panic("sim: negative delay")
	}
	e.seq++
	ev.at, ev.seq = e.now+d, e.seq
	e.events.push(ev)
}

// Run processes events until the event heap is empty or Stop is called.
func (e *Engine) Run() { e.runUntil(math.MaxInt64) }

// RunUntil processes all events scheduled at or before t, then advances the
// clock to exactly t.
func (e *Engine) RunUntil(t Time) {
	e.runUntil(t)
	if e.now < t {
		e.now = t
	}
}

// RunFor advances the simulation by d nanoseconds (see RunUntil).
func (e *Engine) RunFor(d Time) { e.RunUntil(e.now + d) }

// Stop aborts the current Run/RunUntil after the current event completes.
func (e *Engine) Stop() { e.stopped = true }

// runUntil processes events scheduled at or before t until none is left
// or Stop is called, re-panicking any proc failure on the engine
// goroutine.
func (e *Engine) runUntil(t Time) {
	e.stopped = false
	for !e.stopped && len(e.events) > 0 && e.events[0].at <= t {
		ev := e.events.pop()
		if ev.at < e.now {
			panic("sim: time went backwards")
		}
		e.now = ev.at
		if p := ev.proc; p != nil {
			if ev.wake {
				p.wakeQueued = false
			}
			p.next()
		} else {
			ev.fn()
		}
		if e.fault != nil {
			f := e.fault
			e.fault = nil
			panic(f)
		}
	}
}

// Shutdown terminates every live process: a parked one unwinds from its
// park point, and one that never ran never runs its body. The engine must
// not be used afterwards. It is safe to call multiple times.
func (e *Engine) Shutdown() {
	for p := range e.live {
		p.stop()
	}
	e.live = map[*Proc]struct{}{}
}

// wake schedules p to resume at the current time (FIFO among same-time
// events).
func (e *Engine) wake(p *Proc) {
	if p.wakeQueued {
		panic("sim: double wake of proc " + p.name)
	}
	p.wakeQueued = true
	e.schedule(0, event{proc: p, wake: true})
}
