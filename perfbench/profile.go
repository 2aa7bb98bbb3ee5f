package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuLayers are the repo modules whose CPU time the traced run reports,
// in report order. A sample is charged to the innermost frame of one of
// these; repo code outside them (testbed, experiments, clock, the root
// package, this benchmark) goes to "other".
var cpuLayers = []string{
	"sim", "ioreq", "fsim", "device", "netsim", "pfs", "middleware",
	"trace", "core", "workload", "backend", "live", "obs", "other",
}

// Buckets for stacks with no repo frame.
const (
	bucketGC      = "runtime.gc"
	bucketRuntime = "runtime.other"
)

// gcRoots are the runtime's background collector goroutines. A stack
// with no repo frame that passes through one of them is background GC;
// GC assists run on the allocating goroutine and are charged to its
// layer like any other allocation cost.
var gcRoots = []string{"runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge"}

// sample is one decoded CPU-profile sample: its stack, leaf location
// first, each location listing its function names innermost first (a
// location holds several names when calls were inlined into it), and
// the profiler ticks and CPU nanoseconds it stands for. The profiler
// merges ticks with identical stacks into one sample.
type sample struct {
	stack [][]string
	ticks int64
	cpuNS int64
}

// layerOf maps a function name to the cpuLayers bucket of its package,
// or "" when the function is not repo code.
func layerOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "bps/internal/"); ok {
		end := strings.IndexAny(rest, "./")
		if end < 0 {
			return "other"
		}
		mod := rest[:end]
		for _, l := range cpuLayers {
			if l == mod {
				return l
			}
		}
		return "other"
	}
	if strings.HasPrefix(fn, "bps.") || strings.HasPrefix(fn, "main.") {
		return "other"
	}
	return ""
}

// bucketOf charges one stack to exactly one bucket: the layer of its
// innermost repo frame, else background GC, else the rest of the
// runtime.
func bucketOf(stack [][]string) string {
	for _, loc := range stack {
		for _, fn := range loc {
			if l := layerOf(fn); l != "" {
				return l
			}
		}
	}
	for _, loc := range stack {
		for _, fn := range loc {
			for _, root := range gcRoots {
				if strings.HasPrefix(fn, root) {
					return bucketGC
				}
			}
		}
	}
	return bucketRuntime
}

// bucketize sums the samples' CPU time per bucket. The second result is
// the total over all samples; the buckets always sum to it.
func bucketize(samples []sample) (map[string]int64, int64) {
	out := make(map[string]int64)
	var total int64
	for _, s := range samples {
		out[bucketOf(s.stack)] += s.cpuNS
		total += s.cpuNS
	}
	return out, total
}

// ticks returns the number of profiler ticks behind the samples.
func ticks(samples []sample) int64 {
	var n int64
	for _, s := range samples {
		n += s.ticks
	}
	return n
}

// decodeProfile parses a CPU profile as runtime/pprof writes it.
func decodeProfile(data []byte) ([]sample, error) {
	samples, err := decodeSamples(data, "samples", "cpu")
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	return samples, nil
}

// decodeSamples parses a gzip-compressed pprof protobuf and returns its
// samples, with ticks and cpuNS read from the named sample types.
func decodeSamples(data []byte, ticksType, cpuType string) ([]sample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}

	type rawSample struct{ locs, vals []uint64 }
	var (
		strs        []string
		sampleTypes []uint64 // string index of each sample type's name
		rawSamples  []rawSample
		funcName    = map[uint64]uint64{} // function id → string index
		locFuncs    = map[uint64][]uint64{}
	)
	err = walkFields(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 1: // sample_type
			return walkFields(b, func(f int, v uint64, _ []byte) error {
				if f == 1 {
					sampleTypes = append(sampleTypes, v)
				}
				return nil
			})
		case 2: // sample
			var s rawSample
			err := walkFields(b, func(f int, v uint64, pb []byte) error {
				switch f {
				case 1:
					return appendVarints(&s.locs, v, pb)
				case 2:
					return appendVarints(&s.vals, v, pb)
				}
				return nil
			})
			rawSamples = append(rawSamples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := walkFields(b, func(f int, v uint64, lb []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return walkFields(lb, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id, name uint64
			err := walkFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	ticksIdx, cpuIdx := -1, -1
	for i, t := range sampleTypes {
		if str(t) == ticksType {
			ticksIdx = i
		}
		if str(t) == cpuType {
			cpuIdx = i
		}
	}
	if ticksIdx < 0 || cpuIdx < 0 {
		return nil, fmt.Errorf("not a CPU profile: no %q and %q sample types", ticksType, cpuType)
	}
	out := make([]sample, 0, len(rawSamples))
	for _, rs := range rawSamples {
		if len(rs.vals) != len(sampleTypes) {
			return nil, errors.New("sample value count does not match the sample types")
		}
		s := sample{ticks: int64(rs.vals[ticksIdx]), cpuNS: int64(rs.vals[cpuIdx])}
		for _, loc := range rs.locs {
			var names []string
			for _, fn := range locFuncs[loc] {
				names = append(names, str(funcName[fn]))
			}
			s.stack = append(s.stack, names)
		}
		out = append(out, s)
	}
	return out, nil
}

// walkFields calls fn for every field of a protobuf message: v holds a
// varint field's value, b a length-delimited field's bytes. Fixed-width
// fields, which profile.proto does not use, are skipped.
func walkFields(msg []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("bad field key")
		}
		msg = msg[n:]
		field := int(key >> 3)
		switch key & 7 {
		case 0:
			v, n := binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("bad varint")
			}
			msg = msg[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(msg) < 8 {
				return errors.New("short fixed64")
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("bad length")
			}
			b := msg[n : n+int(l)]
			msg = msg[n+int(l):]
			if err := fn(field, 0, b); err != nil {
				return err
			}
		case 5:
			if len(msg) < 4 {
				return errors.New("short fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", key&7)
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, which the encoder
// writes either as one value (b == nil) or packed into b.
func appendVarints(dst *[]uint64, v uint64, b []byte) error {
	if b == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}
