// Package nvmeof implements the NVMe-over-Fabrics command encoding used on
// the simulated wire, including Rio's extension fields in reserved command
// dwords exactly as the paper's Table 1 specifies:
//
//	Dword:bits    NVMe-oF            Rio NVMe-oF
//	00:10-13      reserved           Rio op code (e.g. submit)
//	02:00-31      reserved           start sequence (seq)
//	03:00-31      reserved           end sequence (seq)
//	04:00-31      metadata*          previous group (prev)
//	05:00-15      metadata*          number of requests (num)
//	05:16-31      metadata*          stream ID
//	12:16-19      reserved           special flags (e.g. boundary)
//
// (* the metadata field of NVMe-oF is reserved.)
//
// Standard fields follow the NVMe 1.4 I/O command layout: opcode in dword
// 0 bits 0-7, namespace ID in dword 1, starting LBA in dwords 10-11, and
// number-of-logical-blocks (0-based) in dword 12 bits 0-15. Fields the
// simulation does not need (PRP/SGL pointers, command identifier handled
// out of band) are left zero.
package nvmeof

import (
	"fmt"

	"repro/internal/core"
)

// SQE is a 64-byte NVMe submission queue entry as 16 little-endian dwords.
type SQE [16]uint32

// NVMe opcodes (I/O command set).
const (
	OpFlush uint32 = 0x00
	OpWrite uint32 = 0x01
	OpRead  uint32 = 0x02
)

// Rio opcodes carried in dword 0 bits 10-13.
const (
	RioOpNone    uint32 = 0x0
	RioOpSubmit  uint32 = 0x1 // ordered write carrying an ordering attribute
	RioOpRecover uint32 = 0x2 // recovery traffic (scan/rollback control)
)

// Special flag bits carried in dword 12 bits 16-19.
const (
	FlagBoundary uint32 = 1 << 0
	FlagFlush    uint32 = 1 << 1
	FlagIPU      uint32 = 1 << 2
	FlagSplit    uint32 = 1 << 3
)

// CapsuleHeaderSize is the wire size of a command capsule without inline
// data (the SQE itself plus fabrics framing).
const CapsuleHeaderSize = 72

// SQESize is the wire size of one submission queue entry.
const SQESize = 64

// ResponseSize is the wire size of a completion (CQE) capsule.
const ResponseSize = 16

// SetOpcode stores the NVMe opcode (dword 0, bits 0-7).
func (c *SQE) SetOpcode(op uint32) { c[0] = (c[0] &^ 0xff) | (op & 0xff) }

// Opcode returns the NVMe opcode.
func (c *SQE) Opcode() uint32 { return c[0] & 0xff }

// SetRioOp stores the Rio opcode (dword 0, bits 10-13).
func (c *SQE) SetRioOp(op uint32) { c[0] = (c[0] &^ (0xf << 10)) | ((op & 0xf) << 10) }

// RioOp returns the Rio opcode.
func (c *SQE) RioOp() uint32 { return (c[0] >> 10) & 0xf }

// SetNSID stores the namespace ID (dword 1); the stack uses it to address
// the SSD within a target server.
func (c *SQE) SetNSID(ns uint32) { c[1] = ns }

// NSID returns the namespace ID.
func (c *SQE) NSID() uint32 { return c[1] }

// SetSLBA stores the starting LBA (dwords 10-11).
func (c *SQE) SetSLBA(lba uint64) {
	c[10] = uint32(lba)
	c[11] = uint32(lba >> 32)
}

// SLBA returns the starting LBA.
func (c *SQE) SLBA() uint64 { return uint64(c[10]) | uint64(c[11])<<32 }

// SetNLB stores the 0-based block count (dword 12, bits 0-15).
func (c *SQE) SetNLB(n uint32) { c[12] = (c[12] &^ 0xffff) | ((n - 1) & 0xffff) }

// NLB returns the block count (converted back to 1-based).
func (c *SQE) NLB() uint32 { return (c[12] & 0xffff) + 1 }

// EncodeAttr packs a Rio ordering attribute into the reserved fields per
// Table 1. Because the paper's dwords are 32-bit, sequence numbers and the
// per-server chain are truncated to 32 bits on the wire; DecodeAttr
// rehydrates them. (Benchmarks stay far below 2^32 groups; a production
// encoding would widen these via a second capsule dword pair.)
func EncodeAttr(c *SQE, a core.Attr) {
	c.SetRioOp(RioOpSubmit)
	c[2] = uint32(a.SeqStart)
	c[3] = uint32(a.SeqEnd)
	c[4] = uint32(a.ServerIdx - 1) // the paper's "previous group" pointer
	c[5] = uint32(a.Num) | uint32(a.Stream)<<16
	// The initiator id namespaces the (stream, seq, serverIdx) ordering
	// domain in a multi-initiator cluster. It rides in dword 6, which the
	// simulation leaves free (PRP/SGL pointers are not modeled).
	c[6] = uint32(a.Initiator)
	var flags uint32
	if a.Boundary {
		flags |= FlagBoundary
	}
	if a.Flush {
		flags |= FlagFlush
	}
	if a.IPU {
		flags |= FlagIPU
	}
	if a.Split {
		flags |= FlagSplit
	}
	c[12] = (c[12] &^ (0xf << 16)) | (flags << 16)
	// Request identity and split geometry ride in dwords 13-14, which are
	// reserved in write commands when metadata pointers are unused.
	c[13] = a.ReqID
	c[14] = uint32(a.SplitIdx) | uint32(a.SplitCnt)<<16
	c.SetSLBA(a.LBA)
	c.SetNLB(a.Blocks)
}

// DecodeAttr unpacks the ordering attribute from a Rio command.
func DecodeAttr(c *SQE) (core.Attr, error) {
	if c.RioOp() != RioOpSubmit {
		return core.Attr{}, fmt.Errorf("nvmeof: not a Rio submit command (rio op %d)", c.RioOp())
	}
	flags := (c[12] >> 16) & 0xf
	a := core.Attr{
		Initiator: uint16(c[6]),
		Stream:    uint16(c[5] >> 16),
		ReqID:     c[13],
		SeqStart:  uint64(c[2]),
		SeqEnd:    uint64(c[3]),
		Num:       uint16(c[5] & 0xffff),
		ServerIdx: uint64(c[4]) + 1,
		LBA:       c.SLBA(),
		Blocks:    c.NLB(),
		NS:        uint16(c.NSID()),
		Boundary:  flags&FlagBoundary != 0,
		Flush:     flags&FlagFlush != 0,
		IPU:       flags&FlagIPU != 0,
		Split:     flags&FlagSplit != 0,
		SplitIdx:  uint16(c[14] & 0xffff),
		SplitCnt:  uint16(c[14] >> 16),
	}
	return a, nil
}

// WriteCommand builds a plain (orderless) NVMe-oF write SQE.
func WriteCommand(nsid uint32, lba uint64, blocks uint32) SQE {
	var c SQE
	c.SetOpcode(OpWrite)
	c.SetNSID(nsid)
	c.SetSLBA(lba)
	c.SetNLB(blocks)
	return c
}

// RioWriteCommand builds an ordered write SQE carrying an attribute. The
// namespace ID addresses the SSD within the target server and doubles as
// the attribute's NS field (recovery uses it to locate roll-back blocks).
func RioWriteCommand(nsid uint32, a core.Attr) SQE {
	a.NS = uint16(nsid)
	c := WriteCommand(nsid, a.LBA, a.Blocks)
	EncodeAttr(&c, a)
	return c
}

// FlushCommand builds a FLUSH SQE.
func FlushCommand(nsid uint32) SQE {
	var c SQE
	c.SetOpcode(OpFlush)
	c.SetNSID(nsid)
	return c
}

// CapsuleSize returns the wire size of a command capsule carrying inline
// data of the given byte length (NVMe-oF in-capsule data).
func CapsuleSize(inline int) int { return CapsuleHeaderSize + inline }

// Vectored batches (§4.3 in-order submission chains): all commands a
// shard posts toward one target in one doorbell ring travel as a single
// vectored submission. The fabrics framing is paid once for the whole
// batch; each additional command adds only its 64-byte SQE, and the
// ordering attributes ride with the batched data instead of one fully
// framed capsule per block run. Entry i of n records its position in
// dword 15 (reserved in write commands) so the target can verify the
// batch arrived intact and was split on a target boundary.

// MarkVector stamps position i of n into an SQE's vector dword.
func (c *SQE) MarkVector(i, n int) {
	c[15] = uint32(i) | uint32(n)<<16
}

// VectorPos returns an SQE's position within its vectored batch and the
// batch length (1-based n; 0 means the SQE was never vector-marked).
func (c *SQE) VectorPos() (i, n int) {
	return int(c[15] & 0xffff), int(c[15] >> 16)
}

// VectorCapsuleSize returns the wire size of a vectored command capsule
// carrying n SQEs and the given inline data bytes: one shared fabrics
// framing plus one SQE per command.
func VectorCapsuleSize(n, inline int) int {
	if n <= 0 {
		return 0
	}
	return CapsuleHeaderSize + (n-1)*SQESize + inline
}

// Vectored completions mirror the submission path on the reverse
// direction of the wire: all completions a target accumulates toward one
// queue pair in one coalescing window travel as a single response
// capsule. The fabrics framing is paid once for the whole batch; each
// additional completion adds only its 16-byte CQE, and — more important
// for the paper's CPU-efficiency claim — both endpoints pay one
// PostMsg/CplHandle per capsule instead of one per command.

// CQE is a 16-byte NVMe completion queue entry as 4 little-endian
// dwords: the command identifier the simulation routes on in dwords 0-1
// (widened to 64 bits; real NVMe uses a 16-bit CID plus SQ head state in
// the same footprint), status in dword 2, and the vector marking in
// dword 3.
type CQE [4]uint32

// NewCQE builds a completion entry for the given wire command id.
func NewCQE(id uint64) CQE {
	var c CQE
	c.SetID(id)
	return c
}

// SetID stores the 64-bit wire command identifier (dwords 0-1).
func (c *CQE) SetID(id uint64) {
	c[0] = uint32(id)
	c[1] = uint32(id >> 32)
}

// ID returns the wire command identifier.
func (c *CQE) ID() uint64 { return uint64(c[0]) | uint64(c[1])<<32 }

// MarkCQEVector stamps position i of n into a CQE's vector dword, the
// completion-side analog of SQE.MarkVector.
func (c *CQE) MarkCQEVector(i, n int) {
	c[3] = uint32(i) | uint32(n)<<16
}

// CQEVectorPos returns a CQE's position within its coalesced capsule and
// the capsule length (1-based n; 0 means the CQE was never vector-marked).
func (c *CQE) CQEVectorPos() (i, n int) {
	return int(c[3] & 0xffff), int(c[3] >> 16)
}

// EncodeCQEVector marks a batch of CQEs as one coalesced response capsule
// toward a single queue pair.
func EncodeCQEVector(cqes []CQE) {
	for i := range cqes {
		cqes[i].MarkCQEVector(i, len(cqes))
	}
}

// CheckCQEVector verifies that a received batch is a complete, in-order
// coalesced response: every entry carries the same capsule length and the
// positions run 0..n-1. A violation means the target mixed coalescing
// windows within one capsule or the capsule was torn in transit.
func CheckCQEVector(cqes []CQE) error {
	for i := range cqes {
		pos, n := cqes[i].CQEVectorPos()
		if n != len(cqes) {
			return fmt.Errorf("nvmeof: cqe vector entry %d claims capsule length %d, capsule has %d", i, n, len(cqes))
		}
		if pos != i {
			return fmt.Errorf("nvmeof: cqe vector entry %d carries position %d", i, pos)
		}
	}
	return nil
}

// CQEVectorCapsuleSize returns the wire size of a coalesced response
// capsule carrying n CQEs: one shared fabrics framing (the same 72-byte
// capsule header the submission path pays, whose first slot holds the
// first entry) plus one 16-byte CQE per additional completion. The
// uncoalesced path does not use this — it sends bare ResponseSize
// capsules, exactly as the seed target did.
func CQEVectorCapsuleSize(n int) int {
	if n <= 0 {
		return 0
	}
	return CapsuleHeaderSize + (n-1)*ResponseSize
}
