package sim

import (
	"math/rand"
	"testing"
)

// TestSteadyStateAllocFree pins the engine's allocation-free paths:
// after warm-up a sleep, a cond hand-off, a queue hand-off and a
// resource use each allocate nothing per round.
func TestSteadyStateAllocFree(t *testing.T) {
	cases := []struct {
		name  string
		setup func(e *Engine) // spawns procs that run until Shutdown
	}{
		{"sleep", func(e *Engine) {
			e.Go("sleeper", func(p *Proc) {
				for {
					p.Sleep(1)
				}
			})
		}},
		{"cond ping-pong", func(e *Engine) {
			ping, pong := NewCond(e), NewCond(e)
			turn := 0
			e.Go("ping", func(p *Proc) {
				for {
					for turn != 0 {
						ping.Wait(p)
					}
					turn = 1
					pong.Signal()
				}
			})
			e.Go("pong", func(p *Proc) {
				for {
					for turn != 1 {
						pong.Wait(p)
					}
					p.Sleep(1) // one round per simulated ns
					turn = 0
					ping.Signal()
				}
			})
		}},
		{"queue hand-off", func(e *Engine) {
			q := NewQueue[int](e)
			e.Go("producer", func(p *Proc) {
				for i := 0; ; i++ {
					q.Push(i)
					p.Sleep(1)
				}
			})
			e.Go("consumer", func(p *Proc) {
				for {
					q.Pop(p)
				}
			})
		}},
		{"resource use", func(e *Engine) {
			r := NewResource(e, 1)
			e.Go("user", func(p *Proc) {
				for {
					r.Use(p, 1)
				}
			})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := New(1)
			defer e.Shutdown()
			tc.setup(e)
			e.RunFor(1000) // warm-up: grow the heap and waiter slices
			if n := testing.AllocsPerRun(1000, func() { e.RunFor(1) }); n != 0 {
				t.Fatalf("%v allocs per round, want 0", n)
			}
		})
	}
}

// TestEventHeapOrder interleaves random pushes and pops, with many
// duplicate times, and checks every pop against the (at, seq) order.
func TestEventHeapOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var h eventHeap
	var seq uint64
	var last event
	popped := 0
	for i := 0; i < 20000; i++ {
		if len(h) == 0 || rng.Intn(3) > 0 {
			seq++
			// Pushes never go below the last pop, as on the engine clock.
			h.push(event{at: last.at + Time(rng.Intn(8)), seq: seq})
			continue
		}
		ev := h.pop()
		if popped > 0 && !last.before(&ev) {
			t.Fatalf("pop %d: (%d,%d) after (%d,%d)", popped, ev.at, ev.seq, last.at, last.seq)
		}
		last = ev
		popped++
	}
	for len(h) > 0 {
		ev := h.pop()
		if !last.before(&ev) {
			t.Fatalf("drain: (%d,%d) after (%d,%d)", ev.at, ev.seq, last.at, last.seq)
		}
		last = ev
	}
}

// BenchmarkProcSleep measures one sleep round trip: schedule a resume
// event, park the proc, pop the event and resume it.
func BenchmarkProcSleep(b *testing.B) {
	e := New(1)
	defer e.Shutdown()
	e.Go("sleeper", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(1)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}

// BenchmarkCondPingPong measures one cond hand-off between two procs:
// each round is a Signal, a wake event and a resume.
func BenchmarkCondPingPong(b *testing.B) {
	e := New(1)
	defer e.Shutdown()
	c := NewCond(e)
	turn := 0
	for id := 0; id < 2; id++ {
		e.Go("player", func(p *Proc) {
			for i := id; i < b.N; i += 2 {
				for turn != id {
					c.Wait(p)
				}
				turn = 1 - id
				c.Signal()
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}
