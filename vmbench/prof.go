package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// profModules are the modules a CPU-profile sample can be charged to. A
// sample counts toward the innermost radixvm/internal/<module> frame on
// its stack; a sample with no such frame (GC workers, the scheduler, this
// benchmark's own loop) counts toward runtime.
var profModules = []string{"hw", "radix", "pagetable", "tlb", "refcache", "mem", "vm",
	"linuxvm", "bonsaivm", "rbtree", "bonsai", "workload", "runtime"}

// profilePass runs fn under the CPU profiler and adds the samples taken,
// by module, to counts.
func profilePass(counts map[string]int64, fn func()) error {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		fn()
		return err
	}
	fn()
	pprof.StopCPUProfile()
	zr, err := gzip.NewReader(&buf)
	if err != nil {
		return err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return err
	}
	return moduleSamples(raw, counts)
}

// moduleSamples decodes an uncompressed pprof profile.proto — just the
// fields attribution needs — and adds each sample's count to its module.
func moduleSamples(raw []byte, counts map[string]int64) error {
	var (
		strs    []string
		funcs   = map[uint64]int64{}    // function id -> name string index
		locs    = map[uint64][]uint64{} // location id -> function ids, innermost first
		samples []pbSample
	)
	err := pbFields(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // sample
			var s pbSample
			err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					return pbVarints(v, b, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					first := true
					return pbVarints(v, b, func(x uint64) {
						if first {
							s.count, first = int64(x), false
						}
					})
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return pbFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := pbFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return err
	}
	for _, s := range samples {
		mod := "runtime"
	stack:
		for _, l := range s.locs {
			for _, fn := range locs[l] {
				idx := funcs[fn]
				if idx < 0 || idx >= int64(len(strs)) {
					return fmt.Errorf("profile: bad function name index %d", idx)
				}
				if m, ok := internalModule(strs[idx]); ok {
					mod = m
					break stack
				}
			}
		}
		counts[mod] += s.count
	}
	return nil
}

// shares returns each profiled module's share of all samples counted.
func shares(counts map[string]int64) map[string]float64 {
	var total int64
	for _, n := range counts {
		total += n
	}
	out := map[string]float64{}
	for _, m := range profModules {
		if total > 0 {
			out[m] = float64(counts[m]) / float64(total)
		}
	}
	return out
}

// internalModule returns the module of a radixvm/internal function name
// such as "radixvm/internal/hw.(*CPU).Now".
func internalModule(fn string) (string, bool) {
	const prefix = "radixvm/internal/"
	if !strings.HasPrefix(fn, prefix) {
		return "", false
	}
	rest := fn[len(prefix):]
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	return rest, true
}

type pbSample struct {
	locs  []uint64
	count int64
}

// pbFields walks one protobuf message, calling fn with each field's
// number and its varint value or length-delimited bytes.
func pbFields(b []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
		if err := fn(field, v, data); err != nil {
			return err
		}
	}
	return nil
}

// pbVarints yields a repeated varint field, packed (b non-nil) or not.
func pbVarints(v uint64, b []byte, yield func(uint64)) error {
	if b == nil {
		yield(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		yield(x)
		b = b[n:]
	}
	return nil
}
