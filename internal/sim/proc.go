package sim

import "fmt"

// A Proc is a simulated thread of execution: a goroutine that alternates
// between running (while the engine is blocked) and being parked (while the
// engine runs other work). Procs may block with Sleep, Cond.Wait,
// Resource.Acquire and Queue.Pop; callbacks may not.
type Proc struct {
	eng        *Engine
	name       string
	resume     chan struct{}
	killed     bool
	parkedNow  bool
	wakeQueued bool
}

// procKilled is the sentinel panic used by Engine.Shutdown to unwind a
// parked process.
type procKilled struct{}

// Go spawns fn as a new simulated process starting at the current time.
// The returned Proc is mainly useful for diagnostics; fn receives it as its
// execution context.
func (e *Engine) Go(name string, fn func(p *Proc)) *Proc {
	// A new proc starts parked on its first scheduling, so Shutdown
	// unwinds it even if the engine never ran it.
	p := &Proc{eng: e, name: name, resume: make(chan struct{}), parkedNow: true}
	e.live[p] = struct{}{}
	go func() {
		defer func() {
			delete(e.live, p)
			if r := recover(); r != nil {
				if _, ok := r.(procKilled); !ok {
					// Surface the panic through the engine so tests see it.
					e.fault = fmt.Sprintf("sim: proc %q panicked: %v", p.name, r)
				}
			}
			e.parked <- struct{}{} // final yield
		}()
		p.awaitResume()
		fn(p)
	}()
	e.At(0, func() { e.resumeNow(p) })
	return p
}

// Engine returns the engine this process runs on.
func (p *Proc) Engine() *Engine { return p.eng }

// Name returns the diagnostic name given at spawn time.
func (p *Proc) Name() string { return p.name }

// Now returns the current simulated time.
func (p *Proc) Now() Time { return p.eng.now }

// park yields control to the engine and blocks until the engine resumes
// this process (via Engine.wake or Engine.Shutdown).
func (p *Proc) park() {
	p.parkedNow = true
	p.eng.parked <- struct{}{}
	p.awaitResume()
}

// awaitResume blocks until the engine resumes this process, unwinding it
// if the resume came from Shutdown.
func (p *Proc) awaitResume() {
	<-p.resume
	p.parkedNow = false
	if p.killed {
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
	p.eng.At(d, func() { p.eng.resumeNow(p) })
	p.park()
}

// Yield reschedules the process at the current time behind already-queued
// events, letting same-time work interleave.
func (p *Proc) Yield() {
	p.eng.wake(p)
	p.park()
}
