package stack

import (
	"reflect"
	"testing"

	"repro/internal/blockdev"
	"repro/internal/fabric"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// leaves returns the addressable int64-kinded leaf fields of the struct
// v points to, recursing into nested structs in declaration order.
func leaves(v reflect.Value) []reflect.Value {
	var out []reflect.Value
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		if f.Kind() == reflect.Struct {
			out = append(out, leaves(f)...)
			continue
		}
		out = append(out, f)
	}
	return out
}

// checkCounterArithmetic sets every field of two values of T (nested
// Pool/Batch/CplBatch included) to distinct values and checks that Sub
// and metrics.Add carry each field.
func checkCounterArithmetic[T any](t *testing.T, sub func(a, b T) T) {
	t.Helper()
	var a, b T
	la, lb := leaves(reflect.ValueOf(&a).Elem()), leaves(reflect.ValueOf(&b).Elem())
	if len(la) < 2 {
		t.Fatalf("%T: only %d counter fields", a, len(la))
	}
	for i := range la {
		la[i].SetInt(int64(1000 * (i + 1)))
		lb[i].SetInt(int64(i + 1))
	}
	d, s := sub(a, b), metrics.Add(a, b)
	ld, ls := leaves(reflect.ValueOf(&d).Elem()), leaves(reflect.ValueOf(&s).Elem())
	for i := range la {
		if got, want := ld[i].Int(), int64(999*(i+1)); got != want {
			t.Errorf("%T field %d: Sub = %d, want %d", a, i, got, want)
		}
		if got, want := ls[i].Int(), int64(1001*(i+1)); got != want {
			t.Errorf("%T field %d: Add = %d, want %d", a, i, got, want)
		}
	}
}

func TestStatsSubAddCarryEveryField(t *testing.T) {
	checkCounterArithmetic(t, ClusterStats.Sub)
	checkCounterArithmetic(t, TargetStats.Sub)
	checkCounterArithmetic(t, RCacheStats.Sub)
}

// TestPostAccountingMatchesFabric: every write capsule an initiator posts
// is counted once, at its one post site, with its wire size — so on a
// fault-free write-only run the initiator's TxMsgs/TxBytes equal what the
// fabric delivered toward the targets over every initiator conn, and the
// head's Relays equal the relay conns' head→follower deliveries.
func TestPostAccountingMatchesFabric(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"R=1", smallConfig(ModeRio, OptaneTarget(), OptaneTarget())},
		{"R=3 direct", replConfig(3)},
		{"R=3 relay", relayConfig(3)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.New(3)
			cfg := tc.cfg
			cfg.Initiators = 2
			c := New(eng, cfg)
			for i := 0; i < cfg.Initiators; i++ {
				for s := 0; s < cfg.Streams; s++ {
					in := c.Init(i)
					eng.Go("app", func(p *sim.Proc) {
						var last *blockdev.Request
						for g := 0; g < 60; g++ {
							lba := uint64(i*1_000_000 + s*10_000 + g*8)
							last = in.OrderedWrite(p, s, lba, uint32(1+g%4), 0, nil, true, false, false)
						}
						in.Wait(p, last)
					})
				}
			}
			eng.Run()
			var sends, bytes int64
			for _, tgt := range c.targets {
				for _, conn := range tgt.conns {
					st := conn.Stats(fabric.Target)
					sends += st.Sends
					bytes += st.SendBytes
				}
			}
			cs := c.StatsAll()
			if cs.TxMsgs == 0 {
				t.Fatal("no capsule posted")
			}
			if cs.TxMsgs != sends || cs.TxBytes != bytes {
				t.Fatalf("initiator counted %d msgs / %d B, fabric delivered %d / %d",
					cs.TxMsgs, cs.TxBytes, sends, bytes)
			}
			if !cfg.ReplRelay {
				return
			}
			var relayed int64
			for _, rs := range c.replSets {
				for _, conn := range rs.relay[1:] {
					relayed += conn.Stats(fabric.Target).Sends
				}
			}
			if relays := c.TargetStatsAll().Relays; relays == 0 || relays != relayed {
				t.Fatalf("head counted %d relays, relay conns delivered %d", relays, relayed)
			}
		})
	}
}
