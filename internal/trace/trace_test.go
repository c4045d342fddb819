package trace

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/sim"
)

func newT(keep int) *Tracer {
	return New(Config{SampleEvery: 1, Keep: keep}, 2)
}

// A full pipeline: milestones in order, stages partition e2e exactly.
func TestSpanPartition(t *testing.T) {
	tr := newT(16)
	sl := tr.NewSlab()
	s := tr.Start(sl, 0, 3, 100, 2, 1000)
	seq := s.Seq()
	for m := MStaged; m < NumMilestones; m++ {
		s.Mark(seq, m, sim.Time(1000+100*int64(m)))
	}
	tr.Finish(s, seq)
	st := tr.Stats()
	if st.Finished != 1 || st.Open != 0 {
		t.Fatalf("finished=%d open=%d", st.Finished, st.Open)
	}
	recs := tr.Retained()
	if len(recs) != 1 {
		t.Fatalf("retained %d", len(recs))
	}
	var sum sim.Time
	for i := 0; i < NumStages; i++ {
		d := recs[0].StageDur(i)
		if d < 0 {
			t.Fatalf("stage %s negative: %d", StageName(i), d)
		}
		sum += d
	}
	if sum != recs[0].E2E() {
		t.Fatalf("stages sum %d != e2e %d", sum, recs[0].E2E())
	}
	if recs[0].E2E() != 100*sim.Time(NumMilestones-1) {
		t.Fatalf("e2e %d", recs[0].E2E())
	}
}

// Unset milestones forward-fill (zero-width stages) and a stamp beyond
// the terminal milestone is clamped back — the partition always holds.
func TestNormalize(t *testing.T) {
	tr := newT(16)
	sl := tr.NewSlab()
	s := tr.Start(sl, 0, 0, 0, 1, 500)
	seq := s.Seq()
	// Skip staged/dispatched (a synchronous mode), overshoot cplsent.
	s.Mark(seq, MSent, 900)
	s.Mark(seq, MSSDDone, 1500)
	s.Mark(seq, MCplSent, 5000) // bogus: beyond delivery
	s.Mark(seq, MCompleted, 1900)
	s.Mark(seq, MDeliver, 2000)
	tr.Finish(s, seq)
	r := tr.Retained()[0]
	var sum sim.Time
	for i := 0; i < NumStages; i++ {
		if r.StageDur(i) < 0 {
			t.Fatalf("stage %s negative after normalize", StageName(i))
		}
		sum += r.StageDur(i)
	}
	if sum != 1500 || r.E2E() != 1500 {
		t.Fatalf("sum %d e2e %d", sum, r.E2E())
	}
}

// Record-max: a later stamp for the same milestone wins (replication's
// slowest pre-quorum member is the critical path).
func TestRecordMax(t *testing.T) {
	tr := newT(16)
	sl := tr.NewSlab()
	s := tr.Start(sl, 0, 0, 0, 1, 0)
	seq := s.Seq()
	s.Mark(seq, MSent, 300)
	s.Mark(seq, MSent, 200) // earlier member: ignored
	s.Mark(seq, MDeliver, 1000)
	tr.Finish(s, seq)
	r := tr.Retained()[0]
	if r.MS[MSent] != 300 {
		t.Fatalf("sent = %d, want 300", r.MS[MSent])
	}
}

// A stale generation (recycled span) must never record.
func TestSeqGuard(t *testing.T) {
	tr := newT(16)
	sl := tr.NewSlab()
	s := tr.Start(sl, 0, 0, 0, 1, 0)
	oldSeq := s.Seq()
	s.Mark(oldSeq, MDeliver, 100)
	tr.Finish(s, oldSeq)

	s2 := tr.Start(sl, 0, 0, 7, 1, 1000) // recycles the same slab object
	if s2 != s {
		t.Fatal("slab did not recycle the finished span in place")
	}
	s.Mark(oldSeq, MSent, 9999) // stale pointer from the previous life
	s.AddWait(oldSeq, WaitTx, 50)
	if s2.ms[MSent] != unset || s2.waits[WaitTx] != 0 {
		t.Fatal("stale seq mutated recycled span")
	}
	tr.Finish(s2, oldSeq) // stale finish must be a no-op
	if tr.Stats().Finished != 1 {
		t.Fatal("stale finish closed the new span")
	}
}

func TestDropAndDropOpen(t *testing.T) {
	tr := newT(16)
	sl := tr.NewSlab()
	a := tr.Start(sl, 1, 0, 0, 1, 0)
	aSeq := a.Seq()
	a.Mark(aSeq, MSent, 100)
	b := tr.Start(sl, 1, 1, 0, 1, 0)
	tr.Start(sl, 0, 0, 0, 1, 0) // other initiator: untouched
	_ = b

	tr.DropOpen(1)
	st := tr.Stats()
	if st.Dropped != 2 || st.Open != 1 {
		t.Fatalf("dropped=%d open=%d", st.Dropped, st.Open)
	}
	if st.DroppedAt[MSent] != 1 || st.DroppedAt[MSubmit] != 1 {
		t.Fatalf("droppedAt = %v", st.DroppedAt)
	}
	for _, r := range tr.Retained() {
		if !r.Dropped {
			t.Fatal("retained drop record not marked dropped")
		}
	}
}

func TestWaits(t *testing.T) {
	tr := newT(16)
	sl := tr.NewSlab()
	s := tr.Start(sl, 0, 0, 0, 1, 0)
	seq := s.Seq()
	s.AddWait(seq, WaitCQE, 300)
	s.AddWait(seq, WaitCQE, 200)
	s.Mark(seq, MDeliver, 1000)
	tr.Finish(s, seq)
	st := tr.Stats()
	if st.WaitTotal[WaitCQE] != 500 {
		t.Fatalf("cqe wait total %d", st.WaitTotal[WaitCQE])
	}
	if got := st.WaitMeanPerOp(WaitCQE); got != 500 {
		t.Fatalf("mean/op %f", got)
	}
	if st.Waits[WaitCQE].Count() != 1 {
		t.Fatalf("wait hist count %d", st.Waits[WaitCQE].Count())
	}
}

// The ring keeps the most recent Keep spans, oldest first.
func TestRingEviction(t *testing.T) {
	tr := newT(4)
	sl := tr.NewSlab()
	for i := 0; i < 10; i++ {
		s := tr.Start(sl, 0, 0, uint64(i), 1, sim.Time(i))
		s.Mark(s.Seq(), MDeliver, sim.Time(i+100))
		tr.Finish(s, s.Seq())
	}
	recs := tr.Retained()
	if len(recs) != 4 {
		t.Fatalf("retained %d", len(recs))
	}
	for i, r := range recs {
		if r.LBA != uint64(6+i) {
			t.Fatalf("ring order: rec %d lba %d", i, r.LBA)
		}
	}
}

// The p99 budget cohort sums to the measured p99 within 10%.
func TestBudgetP99(t *testing.T) {
	tr := newT(2048)
	sl := tr.NewSlab()
	for i := 0; i < 1000; i++ {
		s := tr.Start(sl, 0, 0, uint64(i), 1, 0)
		seq := s.Seq()
		e2e := sim.Time(1000 + i) // spread of latencies
		s.Mark(seq, MSent, e2e/3)
		s.Mark(seq, MSSDDone, 2*e2e/3)
		s.Mark(seq, MDeliver, e2e)
		tr.Finish(s, seq)
	}
	b := BudgetP99(tr.Retained())
	if b.N == 0 || b.P99 == 0 {
		t.Fatalf("empty budget %+v", b)
	}
	if r := b.Ratio(); r < 0.9 || r > 1.1 {
		t.Fatalf("budget ratio %f out of [0.9,1.1]", r)
	}
}

func TestStatsMerge(t *testing.T) {
	mk := func(lat sim.Time) Stats {
		tr := newT(16)
		sl := tr.NewSlab()
		s := tr.Start(sl, 0, 0, 0, 1, 0)
		s.AddWait(s.Seq(), WaitGate, 10)
		s.Mark(s.Seq(), MDeliver, lat)
		tr.Finish(s, s.Seq())
		return tr.Stats()
	}
	a, b := mk(100), mk(200)
	a.Merge(&b)
	if a.Finished != 2 || a.E2E.Count() != 2 || a.WaitTotal[WaitGate] != 20 {
		t.Fatalf("merge: %+v", a)
	}
	if a.Table("t") == "" {
		t.Fatal("empty table")
	}
}

func TestWriteChrome(t *testing.T) {
	tr := newT(16)
	sl := tr.NewSlab()
	s := tr.Start(sl, 0, 2, 42, 1, 1000)
	seq := s.Seq()
	for m := MStaged; m < NumMilestones; m++ {
		s.Mark(seq, m, sim.Time(1000+500*int64(m)))
	}
	tr.Finish(s, seq)
	d := tr.Start(sl, 0, 3, 43, 1, 2000)
	d.Mark(d.Seq(), MSent, 2500)
	tr.DropOpen(0)

	var buf bytes.Buffer
	if err := WriteChrome(&buf, tr.Retained()); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	var complete, instant, meta int
	for _, ev := range out.TraceEvents {
		switch ev["ph"] {
		case "X":
			complete++
		case "i":
			instant++
		case "M":
			meta++
		}
	}
	if complete != NumStages || instant != 1 || meta != len(laneNames) {
		t.Fatalf("events: X=%d i=%d M=%d", complete, instant, meta)
	}
}

// Slab recycling: steady-state span churn reuses objects.
func TestSlabRecycle(t *testing.T) {
	tr := newT(4)
	sl := tr.NewSlab()
	seen := map[*Span]bool{}
	for i := 0; i < 1000; i++ {
		s := tr.Start(sl, 0, 0, 0, 1, 0)
		seen[s] = true
		s.Mark(s.Seq(), MDeliver, 1)
		tr.Finish(s, s.Seq())
	}
	if len(seen) > slabChunk {
		t.Fatalf("slab leaked: %d distinct spans", len(seen))
	}
}
