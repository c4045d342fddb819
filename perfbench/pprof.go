package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
)

// cpuShares reads a Go CPU profile and returns each category's share of
// the sampled CPU time (see attribute); a profile too short to hold a
// sample yields no shares.
func cpuShares(path string) (map[string]float64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("read %s: %w", path, err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("read %s: %w", path, err)
	}
	prof, err := parseProfile(data)
	if err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	by := map[string]float64{}
	var total float64
	for _, s := range prof.samples {
		var frames []string
		for _, loc := range s.locs {
			for _, fn := range prof.locFuncs[loc] {
				frames = append(frames, prof.strs[prof.funcName[fn]])
			}
		}
		by[attribute(frames)] += float64(s.value)
		total += float64(s.value)
	}
	for c := range by {
		by[c] /= total
	}
	return by, nil
}

// allocGCFrames and handoffFrames are runtime functions (prefixes) that
// mark a sample as allocation/GC work or as goroutine hand-off.
var allocGCFrames = []string{
	"runtime.mallocgc", "runtime.newobject", "runtime.growslice",
	"runtime.makeslice", "runtime.makemap", "runtime.gc", "runtime.bgsweep",
	"runtime.bgscavenge", "runtime.sweepone", "runtime.scanobject",
	"runtime.greyobject", "runtime.markroot", "runtime.scanblock",
	"runtime.scanstack", "runtime.findObject", "runtime.wbBufFlush",
	"runtime.bulkBarrier", "runtime.(*mheap)", "runtime.(*mspan)",
	"runtime.(*mcache)", "runtime.(*mcentral)", "runtime.(*gcWork)",
	"runtime.(*sweepLocked)", "runtime.(*gcControllerState)",
}

var handoffFrames = []string{
	"runtime.chansend", "runtime.chanrecv", "runtime.selectgo",
	"runtime.send", "runtime.recv", "runtime.gopark", "runtime.goready",
	"runtime.ready", "runtime.park_m", "runtime.schedule",
	"runtime.findRunnable", "runtime.mcall", "runtime.execute",
	"runtime.gogo", "runtime.goexit0", "runtime.runq", "runtime.wakep",
	"runtime.startm", "runtime.stopm", "runtime.notesleep",
	"runtime.notewakeup", "runtime.futex", "runtime.casgstatus",
	"runtime.resetspinning", "runtime.lock2", "runtime.unlock2",
}

func hasPrefixAny(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

// attribute names the category of one sample, frames leaf first. The
// innermost repro/internal/<pkg> frame names the layer; the benchmark's
// own load generators (package main) count as workload. Before that frame,
// allocation or GC runtime frames make the sample alloc_gc, and channel
// or scheduler frames under sim (or under no repro frame) make it
// handoff, the cost of switching simulated processes.
func attribute(frames []string) string {
	alloc, handoff := false, false
	for _, f := range frames {
		if pkg, ok := layerOf(f); ok {
			switch {
			case alloc:
				return "alloc_gc"
			case handoff && pkg == "sim":
				return "handoff"
			}
			for _, c := range cpuCategories {
				if c == pkg {
					return pkg
				}
			}
			return "other"
		}
		alloc = alloc || hasPrefixAny(f, allocGCFrames)
		handoff = handoff || hasPrefixAny(f, handoffFrames)
	}
	switch {
	case alloc:
		return "alloc_gc"
	case handoff:
		return "handoff"
	}
	return "other"
}

// layerOf returns the layer a function belongs to, if it is repro code.
func layerOf(fn string) (string, bool) {
	if strings.HasPrefix(fn, "main.") {
		return "workload", true
	}
	rest, ok := strings.CutPrefix(fn, "repro/internal/")
	if !ok {
		return "", false
	}
	pkg, _, _ := strings.Cut(rest, ".")
	return pkg, true
}

// profile is the part of a pprof profile the attribution needs.
type profile struct {
	strs     []string
	samples  []profSample
	locFuncs map[uint64][]uint64 // location id -> function ids, innermost first
	funcName map[uint64]int64    // function id -> string index
}

type profSample struct {
	locs  []uint64 // leaf first
	value int64    // CPU time (the last sample value)
}

// parseProfile decodes the protobuf fields of profile.proto it needs:
// Profile.sample (2), location (4), function (5) and string_table (6).
func parseProfile(data []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcName: map[uint64]int64{}}
	err := eachField(data, func(num int, v uint64, b []byte) error {
		switch num {
		case 2:
			var s profSample
			err := eachField(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					vals := appendVarints(nil, v, b)
					if len(vals) > 0 {
						s.value = int64(vals[len(vals)-1])
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := eachField(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4:
					return eachField(b, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = fns
			return err
		case 5:
			var id uint64
			var name int64
			err := eachField(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcName[id] = name
			return err
		case 6:
			p.strs = append(p.strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for id, s := range p.funcName {
		if s < 0 || s >= int64(len(p.strs)) {
			return nil, fmt.Errorf("function %d: bad name index %d", id, s)
		}
	}
	return p, nil
}

// appendVarints appends a repeated integer field's values: one varint v
// (unpacked) or the packed varints in b.
func appendVarints(out []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(out, v)
	}
	for len(b) > 0 {
		x, n := varint(b)
		if n <= 0 {
			break
		}
		out = append(out, x)
		b = b[n:]
	}
	return out
}

func varint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// eachField calls f for every field of a protobuf message: v holds a
// varint or fixed value, b a length-delimited payload (nil otherwise).
func eachField(data []byte, f func(num int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := varint(data)
		if n <= 0 {
			return errors.New("bad field key")
		}
		data = data[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = varint(data)
			if n <= 0 {
				return errors.New("bad varint")
			}
		case 1:
			if len(data) < 8 {
				return errors.New("short fixed64")
			}
			n = 8
		case 2:
			l, m := varint(data)
			if m <= 0 || uint64(len(data)-m) < l {
				return errors.New("bad length")
			}
			b, n = data[m:m+int(l)], m+int(l)
			if b == nil {
				b = []byte{}
			}
		case 5:
			if len(data) < 4 {
				return errors.New("short fixed32")
			}
			n = 4
		default:
			return fmt.Errorf("wire type %d", wire)
		}
		data = data[n:]
		if err := f(num, v, b); err != nil {
			return err
		}
	}
	return nil
}
