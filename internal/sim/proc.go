package sim

import (
	"fmt"
	"iter"
	"runtime/debug"
)

// A Proc is a simulated thread of execution: a coroutine that alternates
// between running (while the engine waits for it) and being parked (while
// the engine runs other work). Procs may block with Sleep, Cond.Wait,
// Resource.Acquire and Queue.Pop; callbacks may not.
type Proc struct {
	eng        *Engine
	name       string
	next       func() (struct{}, bool) // runs the proc until it parks or ends
	stop       func()                  // unwinds a parked proc (see Shutdown)
	yield      func(struct{}) bool     // parks the proc; false once stopped
	wakeQueued bool
}

// procKilled is the sentinel panic used by Engine.Shutdown to unwind a
// parked process.
type procKilled struct{}

// Go spawns fn as a new simulated process starting at the current time.
// The returned Proc is mainly useful for diagnostics; fn receives it as its
// execution context.
func (e *Engine) Go(name string, fn func(p *Proc)) *Proc {
	p := &Proc{eng: e, name: name}
	e.live[p] = struct{}{}
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer func() {
			delete(e.live, p)
			if r := recover(); r != nil {
				if _, ok := r.(procKilled); !ok {
					// Surface the panic through the engine so tests see it,
					// with the proc's own stack: the engine re-panics on
					// its goroutine, whose stack does not show where.
					e.fault = fmt.Sprintf("sim: proc %q panicked: %v\n%s", p.name, r, debug.Stack())
				}
			}
		}()
		fn(p)
	})
	e.schedule(0, event{proc: p})
	return p
}

// Engine returns the engine this process runs on.
func (p *Proc) Engine() *Engine { return p.eng }

// Name returns the diagnostic name given at spawn time.
func (p *Proc) Name() string { return p.name }

// Now returns the current simulated time.
func (p *Proc) Now() Time { return p.eng.now }

// park yields control to the engine until it resumes this process (via a
// Sleep timer or Engine.wake), unwinding it if Engine.Shutdown stopped it
// instead.
func (p *Proc) park() {
	if !p.yield(struct{}{}) {
		panic(procKilled{})
	}
}

// Sleep blocks the process for d nanoseconds of simulated time.
func (p *Proc) Sleep(d Time) {
	if d < 0 {
		panic("sim: negative sleep")
	}
	if d == 0 {
		return
	}
	p.eng.schedule(d, event{proc: p})
	p.park()
}

// Yield reschedules the process at the current time behind already-queued
// events, letting same-time work interleave.
func (p *Proc) Yield() {
	p.eng.wake(p)
	p.park()
}
