package stack

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/blockdev"
	"repro/internal/sim"
	"repro/internal/ssd"
)

func TestVectorFusionAcrossStripes(t *testing.T) {
	eng := sim.New(1)
	cfg := DefaultConfig(ModeRio,
		TargetConfig{SSDs: []ssd.Config{ssd.OptaneConfig(), ssd.OptaneConfig()}},
		TargetConfig{SSDs: []ssd.Config{ssd.OptaneConfig(), ssd.OptaneConfig()}})
	c := New(eng, cfg)
	eng.Go("app", func(p *sim.Proc) {
		var reqs []*blockdev.Request
		c.Init(0).StartPlug(0)
		for i := 0; i < 16; i++ {
			reqs = append(reqs, c.Init(0).OrderedWrite(p, 0, uint64(i), 1, 0, nil, true, false, false))
		}
		c.Init(0).FinishPlug(p, 0)
		c.Init(0).Wait(p, reqs[len(reqs)-1])
	})
	eng.Run()
	st := c.Init(0).Stats()
	if st.FusedCmds == 0 {
		t.Fatal("vector fusion did not trigger")
	}
	// 16 striped one-block requests should compact to one command per
	// device (4) carried in one capsule per target (2).
	if st.WireCmds != 4 || st.WireMessages != 2 {
		t.Fatalf("wirecmds=%d msgs=%d, want 4/2", st.WireCmds, st.WireMessages)
	}
	// Vector-fused commands keep one PMR entry per request, so recovery
	// semantics are unchanged.
	appends := c.Target(0).Stats().PMRAppends + c.Target(1).Stats().PMRAppends
	if appends != 16 {
		t.Fatalf("PMR appends = %d, want 16", appends)
	}
	eng.Shutdown()
}

// TestTornSubmissionVectorPanics: the target validates every command
// capsule's vector geometry and routing on arrival — a torn or misrouted
// batch is a simulation bug and must panic loudly, naming the violation.
func TestTornSubmissionVectorPanics(t *testing.T) {
	// batch builds a capsule of one command per entry of targets (the
	// command's destination), vector-marked with the given (pos, n) pairs.
	batch := func(targets []int, marks [][2]int) *capsule {
		cp := &capsule{}
		for i, ti := range targets {
			ws := &wireState{id: uint64(100 + i), target: ti}
			ws.sqe.MarkVector(marks[i][0], marks[i][1])
			cp.cmds = append(cp.cmds, ws)
		}
		return cp
	}
	// A replicated copy addressed to member 1 of set 0, pushed into
	// member 0.
	replica := batch([]int{0, 0}, [][2]int{{0, 2}, {1, 2}})
	replica.member = 1
	for _, ws := range replica.cmds {
		replica.sqes = append(replica.sqes, ws.sqe)
		replica.attrs = append(replica.attrs, nil)
	}
	twoTargets := smallConfig(ModeRio, OptaneTarget(), OptaneTarget())
	cases := []struct {
		name string
		cfg  Config
		cp   *capsule
		want string
	}{
		{"torn position", twoTargets, batch([]int{0, 0}, [][2]int{{0, 2}, {0, 2}}), "torn vectored batch"},
		{"wrong batch length", twoTargets, batch([]int{0, 0}, [][2]int{{0, 3}, {1, 3}}), "torn vectored batch"},
		{"replica at wrong member", replConfig(2), replica, "replicated batch misrouted"},
		{"direct batch crosses target boundary", twoTargets, batch([]int{0, 1}, [][2]int{{0, 2}, {1, 2}}), "crosses target boundary"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.New(1)
			c := New(eng, tc.cfg)
			tc.cp.epoch = c.inits[0].epoch
			c.targets[0].rxQs[0][0].Push(tc.cp)
			defer func() {
				r := recover()
				if r == nil {
					t.Fatal("malformed submission capsule did not panic")
				}
				if msg := fmt.Sprint(r); !strings.Contains(msg, tc.want) {
					t.Fatalf("panic %q, want one naming %q", msg, tc.want)
				}
				eng.Shutdown()
			}()
			eng.Run()
		})
	}
}
