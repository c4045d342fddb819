package sim

// Cond is a condition variable for simulated processes. Unlike sync.Cond
// there is no associated lock: simulation state is only ever touched by one
// goroutine at a time, so waiters re-check their predicate in a loop after
// waking.
type Cond struct {
	eng     *Engine
	waiters []*Proc
}

// NewCond creates a condition variable on e.
func NewCond(e *Engine) *Cond { return &Cond{eng: e} }

// Wait parks p until Broadcast or Signal wakes it.
func (c *Cond) Wait(p *Proc) {
	c.waiters = append(c.waiters, p)
	p.park()
}

// Broadcast wakes every waiter (they resume at the current time, in FIFO
// order). The waiter slice keeps its storage, so a steady wait/wake cycle
// allocates nothing.
func (c *Cond) Broadcast() {
	for _, p := range c.waiters {
		c.eng.wake(p)
	}
	clear(c.waiters)
	c.waiters = c.waiters[:0]
}

// Signal wakes the longest-waiting process, if any.
func (c *Cond) Signal() {
	if len(c.waiters) == 0 {
		return
	}
	p := c.waiters[0]
	n := copy(c.waiters, c.waiters[1:])
	c.waiters[n] = nil
	c.waiters = c.waiters[:n]
	c.eng.wake(p)
}

// Signal is a one-shot completion event: once Fired, all current and future
// waiters proceed immediately. It is the simulated analogue of closing a
// channel, used for I/O completions.
type Signal struct {
	eng   *Engine
	fired bool
	cond  *Cond
}

// NewSignal creates an unfired signal.
func NewSignal(e *Engine) *Signal {
	return &Signal{eng: e, cond: NewCond(e)}
}

// Fire marks the signal complete and wakes all waiters. Firing twice is a
// no-op.
func (s *Signal) Fire() {
	if s.fired {
		return
	}
	s.fired = true
	s.cond.Broadcast()
}

// Fired reports whether Fire has been called.
func (s *Signal) Fired() bool { return s.fired }

// Reset returns a fired signal to the unfired state so its storage can be
// reused (pooled one-shot completions). Resetting a signal that still has
// waiters would strand them, so it panics.
func (s *Signal) Reset() {
	if len(s.cond.waiters) > 0 {
		panic("sim: reset of a signal with waiters")
	}
	s.fired = false
}

// Wait blocks p until the signal fires (returning immediately if it already
// has).
func (s *Signal) Wait(p *Proc) {
	for !s.fired {
		s.cond.Wait(p)
	}
}

// Resource is a counted resource (CPU cores, SSD channels, a network link)
// with FIFO admission and a busy-time integral for utilization accounting.
type Resource struct {
	eng      *Engine
	capacity int
	inUse    int
	waiters  []*grant
	lastT    Time
	busyInt  Time // ∫ inUse dt, in unit-nanoseconds
	grants   int64
}

type grant struct {
	p  *Proc
	ok bool
}

// NewResource creates a resource with the given capacity (number of
// concurrently held units).
func NewResource(e *Engine, capacity int) *Resource {
	if capacity <= 0 {
		panic("sim: resource capacity must be positive")
	}
	return &Resource{eng: e, capacity: capacity}
}

// Capacity returns the configured number of units.
func (r *Resource) Capacity() int { return r.capacity }

// InUse returns the number of currently held units.
func (r *Resource) InUse() int { return r.inUse }

func (r *Resource) account() {
	now := r.eng.now
	r.busyInt += Time(r.inUse) * (now - r.lastT)
	r.lastT = now
}

// Acquire blocks p until a unit is available, FIFO among waiters.
func (r *Resource) Acquire(p *Proc) {
	if r.inUse < r.capacity && len(r.waiters) == 0 {
		r.account()
		r.inUse++
		r.grants++
		return
	}
	g := &grant{p: p}
	r.waiters = append(r.waiters, g)
	for !g.ok {
		p.park()
	}
}

// TryAcquire acquires a unit without blocking, reporting success.
func (r *Resource) TryAcquire() bool {
	if r.inUse < r.capacity && len(r.waiters) == 0 {
		r.account()
		r.inUse++
		r.grants++
		return true
	}
	return false
}

// Release returns a unit. If processes are waiting the unit transfers to
// the head waiter at the current time.
func (r *Resource) Release() {
	if r.inUse <= 0 {
		panic("sim: release of idle resource")
	}
	if len(r.waiters) > 0 {
		// Hand the unit over directly: inUse is unchanged, so the busy
		// integral sees no idle gap.
		g := r.waiters[0]
		r.waiters = r.waiters[1:]
		g.ok = true
		r.grants++
		r.eng.wake(g.p)
		return
	}
	r.account()
	r.inUse--
}

// Use acquires a unit, holds it for d nanoseconds, and releases it. This is
// the common "spend d of CPU/channel time" idiom.
func (r *Resource) Use(p *Proc, d Time) {
	r.Acquire(p)
	p.Sleep(d)
	r.Release()
}

// BusyTime returns the busy-time integral ∫ inUse dt up to now. Utilization
// over a window [a,b] is (BusyTime(b)-BusyTime(a)) / (capacity*(b-a)).
func (r *Resource) BusyTime() Time {
	r.account()
	return r.busyInt
}

// Grants returns the cumulative number of acquisitions, useful in tests.
func (r *Resource) Grants() int64 { return r.grants }

// Queue is an unbounded FIFO whose Pop blocks simulated processes until an
// item arrives. Push never blocks and is callable from callbacks.
type Queue[T any] struct {
	eng   *Engine
	items []T // the queued items are items[head:]
	head  int
	cond  *Cond
}

// NewQueue creates an empty queue on e.
func NewQueue[T any](e *Engine) *Queue[T] {
	return &Queue[T]{eng: e, cond: NewCond(e)}
}

// Push appends v and wakes one waiting consumer. Storage freed by pops
// is reused once it is at least half the slice, so a queue that hovers
// at a steady depth stops allocating.
func (q *Queue[T]) Push(v T) {
	if len(q.items) == cap(q.items) && q.head >= len(q.items)/2 {
		n := copy(q.items, q.items[q.head:])
		clear(q.items[n:])
		q.items, q.head = q.items[:n], 0
	}
	q.items = append(q.items, v)
	q.cond.Signal()
}

// PushFront prepends v (used to re-queue a deferred item without losing its
// position) and wakes one waiting consumer.
func (q *Queue[T]) PushFront(v T) {
	if q.head > 0 {
		q.head--
		q.items[q.head] = v
	} else {
		q.items = append([]T{v}, q.items...)
	}
	q.cond.Signal()
}

// Pop blocks p until an item is available and returns it.
func (q *Queue[T]) Pop(p *Proc) T {
	for q.Len() == 0 {
		q.cond.Wait(p)
	}
	v := q.popHead()
	if q.Len() > 0 {
		// More work: make sure another waiter (if any) gets scheduled.
		q.cond.Signal()
	}
	return v
}

// TryPop removes and returns the head item without blocking.
func (q *Queue[T]) TryPop() (T, bool) {
	if q.Len() == 0 {
		var zero T
		return zero, false
	}
	return q.popHead(), true
}

// popHead removes the head item; the queue must not be empty.
func (q *Queue[T]) popHead() T {
	var zero T
	v := q.items[q.head]
	q.items[q.head] = zero
	q.head++
	if q.head == len(q.items) {
		q.items, q.head = q.items[:0], 0
	}
	return v
}

// Len returns the number of queued items.
func (q *Queue[T]) Len() int { return len(q.items) - q.head }

// Drain removes and returns all queued items.
func (q *Queue[T]) Drain() []T {
	v := q.items[q.head:]
	q.items, q.head = nil, 0
	return v
}

// WaitGroup tracks a count of outstanding simulated tasks.
type WaitGroup struct {
	n    int
	cond *Cond
}

// NewWaitGroup creates a wait group on e.
func NewWaitGroup(e *Engine) *WaitGroup { return &WaitGroup{cond: NewCond(e)} }

// Add increments the outstanding count by delta.
func (w *WaitGroup) Add(delta int) {
	w.n += delta
	if w.n < 0 {
		panic("sim: negative waitgroup count")
	}
	if w.n == 0 {
		w.cond.Broadcast()
	}
}

// Done decrements the count by one.
func (w *WaitGroup) Done() { w.Add(-1) }

// Wait blocks p until the count reaches zero.
func (w *WaitGroup) Wait(p *Proc) {
	for w.n != 0 {
		w.cond.Wait(p)
	}
}
