package stack

import (
	"testing"

	"repro/internal/sim"
)

// TestIdleStreamDoesNotWedgePMRLog: retire watermarks must reach a target
// for a stream that went idle. Stream 1 writes a few groups and stops;
// stream 0 then writes more groups than one PMR log (2 MiB / 64 B
// entries) holds. If the idle stream's last entries were never retired
// they would pin the head of the circular log, and stream 0 would stall
// one entry short of the log's capacity.
func TestIdleStreamDoesNotWedgePMRLog(t *testing.T) {
	eng := sim.New(1)
	cfg := DefaultConfig(ModeRio, OptaneTarget())
	cfg.Streams = 2
	c := New(eng, cfg)
	in := c.Init(0)
	const idle, busy = 10, 40000
	var done int
	eng.Go("app", func(p *sim.Proc) {
		for i := 0; i < idle; i++ {
			in.Wait(p, in.OrderedWrite(p, 1, uint64(1<<20+i), 1, 0, nil, true, false, false))
		}
		for i := 0; i < busy; i++ {
			in.Wait(p, in.OrderedWrite(p, 0, uint64(i), 1, 0, nil, true, false, false))
			done++
		}
	})
	eng.Run()
	eng.Shutdown()
	if done != busy {
		t.Fatalf("stream 0 stalled after %d of %d writes: the idle stream's entries pin the PMR log", done, busy)
	}
}
