package nvmeof

import (
	"testing"

	"repro/internal/core"
)

func TestVectorRoundTrip(t *testing.T) {
	sqes := make([]SQE, 5)
	for i := range sqes {
		sqes[i] = RioWriteCommand(0, core.Attr{Stream: 2, ReqID: uint32(i), SeqStart: 1, SeqEnd: 1, LBA: uint64(i * 8), Blocks: 8})
		sqes[i].MarkVector(i, len(sqes))
	}
	for i := range sqes {
		c := &sqes[i]
		pos, n := c.VectorPos()
		if pos != i || n != len(sqes) {
			t.Fatalf("entry %d decoded as %d of %d", i, pos, n)
		}
		// The vector dword must not disturb the ordering attribute.
		a, err := DecodeAttr(c)
		if err != nil || a.ReqID != uint32(i) || a.LBA != uint64(i*8) {
			t.Fatalf("attribute corrupted by vector marking: %+v, %v", a, err)
		}
	}
}

func TestVectorCapsuleSize(t *testing.T) {
	if got := VectorCapsuleSize(1, 0); got != CapsuleHeaderSize {
		t.Fatalf("one command = %d, want %d", got, CapsuleHeaderSize)
	}
	// n commands share one framing: cheaper than n full capsules.
	n := 8
	batched := VectorCapsuleSize(n, 0)
	unbatched := n * CapsuleHeaderSize
	if batched >= unbatched {
		t.Fatalf("vectored batch (%d) not cheaper than %d capsules (%d)", batched, n, unbatched)
	}
	if want := CapsuleHeaderSize + (n-1)*SQESize; batched != want {
		t.Fatalf("size = %d, want %d", batched, want)
	}
	if got := VectorCapsuleSize(2, 4096); got != CapsuleHeaderSize+SQESize+4096 {
		t.Fatalf("inline accounting wrong: %d", got)
	}
}
