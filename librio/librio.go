// Package librio is the userspace asynchronous I/O interface of §4.6: the
// paper suggests applications built on the block device (e.g. BlueStore,
// KVell) replace libaio with librio, a wrapper over rio_submit/rio_wait.
//
// The API mirrors an aio ring: a fixed submission depth, non-blocking
// Submit, and completion harvesting that — because Rio completes in order
// — always returns completions in storage order. A ring inherits the
// initiator of the Ctx it is built from (rio.Cluster.GoOn), so a
// multi-initiator deployment gets one set of rings per initiator, each
// an independent ordering domain:
//
//	ring := librio.NewRing(ctx, 0, 128)
//	id, _ := ring.Write(librio.Op{LBA: 4096, Blocks: 8, Boundary: true})
//	ring.WaitMin(1)                 // harvest at least one completion
package librio

import (
	"fmt"

	"repro/rio"
)

// Op describes one ordered write.
type Op struct {
	LBA      uint64
	Blocks   uint32
	Boundary bool // end of the current ordered group
	Flush    bool // carry the durability barrier
	IPU      bool // in-place update
}

// Completion reports one finished operation, delivered in storage order.
type Completion struct {
	ID    uint64
	Op    Op
	Group uint64 // the group sequence number the sequencer assigned
}

type inflight struct {
	id     uint64
	op     Op
	handle *rio.Handle
}

// Ring is an asynchronous submission/completion ring bound to one stream.
// It is not safe for concurrent use from multiple simulated threads; use
// one ring per thread (matching the stream-per-thread model of §4.5).
type Ring struct {
	ctx    *rio.Ctx
	stream *rio.Stream
	depth  int
	nextID uint64
	queue  []inflight
}

// NewRing creates a ring of the given depth over stream id.
func NewRing(ctx *rio.Ctx, stream int, depth int) *Ring {
	if depth <= 0 {
		panic("librio: ring depth must be positive")
	}
	return &Ring{ctx: ctx, stream: ctx.Stream(stream), depth: depth}
}

// Inflight returns the number of unharvested operations.
func (r *Ring) Inflight() int { return len(r.queue) }

// Write submits one ordered write. It fails with ErrRingFull when depth
// operations are unharvested (harvest with Poll or WaitMin first).
func (r *Ring) Write(op Op) (uint64, error) {
	if len(r.queue) >= r.depth {
		return 0, ErrRingFull
	}
	var h *rio.Handle
	switch {
	case op.IPU:
		h = r.stream.WriteIPU(op.LBA, op.Blocks, op.Boundary)
	case op.Flush && op.Boundary:
		h = r.stream.Commit(op.LBA, op.Blocks)
	case op.Boundary:
		h = r.stream.Close(op.LBA, op.Blocks)
	default:
		h = r.stream.Write(op.LBA, op.Blocks)
	}
	r.nextID++
	r.queue = append(r.queue, inflight{id: r.nextID, op: op, handle: h})
	return r.nextID, nil
}

// ErrRingFull is returned by Write when the ring is at depth.
var ErrRingFull = fmt.Errorf("librio: ring full")

// Poll harvests up to max completed operations without blocking. Because
// Rio delivers completions in storage order, the ring head is complete
// before any later entry, so harvesting is a prefix scan.
func (r *Ring) Poll(max int) []Completion {
	var out []Completion
	for len(r.queue) > 0 && (max <= 0 || len(out) < max) {
		head := r.queue[0]
		if !head.handle.Done() {
			break
		}
		out = append(out, Completion{
			ID:    head.id,
			Op:    head.op,
			Group: head.handle.Attr().SeqStart,
		})
		r.queue = r.queue[1:]
	}
	return out
}

// WaitMin blocks until at least n operations can be harvested (or the
// ring has fewer than n in flight, in which case it waits for all) and
// returns them.
func (r *Ring) WaitMin(n int) []Completion {
	if n > len(r.queue) {
		n = len(r.queue)
	}
	if n == 0 {
		return nil
	}
	r.queue[n-1].handle.Wait()
	return r.Poll(n + len(r.queue)) // everything done up to and beyond n
}

// Drain waits for every in-flight operation.
func (r *Ring) Drain() []Completion {
	return r.WaitMin(len(r.queue))
}

// Barrier waits for every in-flight operation; transaction commit paths
// call it after submitting a Flush-carrying boundary write, making the
// whole transaction durable and ordered.
func (r *Ring) Barrier() []Completion { return r.Drain() }
