package metrics

import (
	"testing"

	"repro/internal/sim"
)

func TestPoolStats(t *testing.T) {
	var p PoolStats
	if p.HitRate() != 0 {
		t.Fatal("empty pool stats should report 0 hit rate")
	}
	for i := 0; i < 3; i++ {
		p.Hit()
	}
	p.Miss()
	if p.Gets() != 4 {
		t.Fatalf("gets = %d, want 4", p.Gets())
	}
	if got := p.HitRate(); got != 0.75 {
		t.Fatalf("hit rate = %g, want 0.75", got)
	}
	d := Sub(p, PoolStats{Hits: 1, Misses: 1})
	if d.Hits != 2 || d.Misses != 0 {
		t.Fatalf("delta = %+v", d)
	}
}

func TestBatchStats(t *testing.T) {
	var b BatchStats
	if b.Occupancy() != 0 {
		t.Fatal("empty batch stats should report 0 occupancy")
	}
	b.Ring(4)
	b.Ring(2)
	if got := b.Occupancy(); got != 3 {
		t.Fatalf("occupancy = %g, want 3", got)
	}
	d := Sub(b, BatchStats{Rings: 1, Items: 4})
	if d.Rings != 1 || d.Items != 2 {
		t.Fatalf("delta = %+v", d)
	}
}

func TestAllocsPerOp(t *testing.T) {
	if got := AllocsPerOp(30, 10); got != 3 {
		t.Fatalf("allocs/op = %g, want 3", got)
	}
	if got := AllocsPerOp(5, 0); got != 0 {
		t.Fatalf("allocs/op with 0 ops = %g, want 0", got)
	}
}

func TestMsgsPerOp(t *testing.T) {
	if got := MsgsPerOp(50, 100); got != 0.5 {
		t.Fatalf("msgs/op = %g, want 0.5 (coalesced direction)", got)
	}
	if got := MsgsPerOp(5, 0); got != 0 {
		t.Fatalf("msgs/op with 0 ops = %g, want 0", got)
	}
}

func TestCounterArithmeticNested(t *testing.T) {
	type nested struct {
		N    int64
		Pool PoolStats
		T    sim.Time
	}
	a := nested{N: 10, Pool: PoolStats{Hits: 7, Misses: 3}, T: 500}
	b := nested{N: 4, Pool: PoolStats{Hits: 2, Misses: 1}, T: 200}
	if got, want := Sub(a, b), (nested{N: 6, Pool: PoolStats{Hits: 5, Misses: 2}, T: 300}); got != want {
		t.Fatalf("Sub = %+v, want %+v", got, want)
	}
	if got, want := Add(a, b), (nested{N: 14, Pool: PoolStats{Hits: 9, Misses: 4}, T: 700}); got != want {
		t.Fatalf("Add = %+v, want %+v", got, want)
	}
	if a.N != 10 || b.N != 4 {
		t.Fatal("Sub/Add must not mutate their operands")
	}
}

func TestCounterArithmeticRejectsNonInt64(t *testing.T) {
	type bad struct {
		N    int64
		Rate float64
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a float64 counter field must panic, not read as 0")
		}
	}()
	Sub(bad{N: 1, Rate: 0.5}, bad{})
}
