package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file decodes the gzipped protobuf CPU profile runtime/pprof writes,
// just far enough to attribute each sample to a layer; the standard library
// has no reader for the format. Field numbers follow
// github.com/google/pprof/proto/profile.proto.

// layerOf maps a function name to its layer: the package under
// repro/internal/, "perfbench" for this benchmark's own code, or "" for any
// other frame (runtime, standard library).
func layerOf(fn string) string {
	const repo = "repro/internal/"
	if rest, ok := strings.CutPrefix(fn, repo); ok {
		if i := strings.IndexAny(rest, "./"); i > 0 {
			return rest[:i]
		}
		return rest
	}
	if strings.HasPrefix(fn, "main.") {
		return "perfbench"
	}
	return ""
}

// attributeProfile returns CPU nanoseconds per layer. Each sample goes to the
// innermost repo frame on its stack, so map, malloc and GC-assist work counts
// against the layer that caused it; a sample with no repo frame at all (the
// collector's background workers, the scheduler) goes to "runtime".
func attributeProfile(gz []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	var (
		strs      []string
		funcName  = map[uint64]int64{}    // function id -> string index
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, innermost first
		samples   [][2][]uint64           // (location ids, values)
		valueType []int64                 // sample_type type string indexes
	)
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			return fields(b, func(n int, v uint64, _ []byte) error {
				if n == 1 {
					valueType = append(valueType, int64(v))
				}
				return nil
			})
		case 2: // sample
			var s [2][]uint64
			err := fields(b, func(n int, v uint64, pb []byte) error {
				if n == 1 || n == 2 {
					vals, err := packed(v, pb)
					s[n-1] = append(s[n-1], vals...)
					return err
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := fields(b, func(n int, v uint64, lb []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return fields(lb, func(n int, v uint64, _ []byte) error {
						if n == 1 {
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
			var id uint64
			var name int64
			err := fields(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
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
	// CPU profiles carry (samples/count, cpu/nanoseconds); use the latter.
	valIdx := -1
	for i, t := range valueType {
		if int(t) < len(strs) && strs[t] == "cpu" {
			valIdx = i
		}
	}
	if valIdx < 0 {
		return nil, errors.New("profile: no cpu sample type")
	}
	out := map[string]int64{}
	for _, s := range samples {
		if valIdx >= len(s[1]) {
			continue
		}
		layer := "runtime"
	stack:
		for _, loc := range s[0] {
			for _, fid := range locFuncs[loc] {
				if si := funcName[fid]; si >= 0 && int(si) < len(strs) {
					if l := layerOf(strs[si]); l != "" {
						layer = l
						break stack
					}
				}
			}
		}
		out[layer] += int64(s[1][valIdx])
	}
	return out, nil
}

// fields walks one protobuf message, calling fn with each field's number and
// either its varint value or its length-delimited bytes.
func fields(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := varint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = varint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
			continue
		case 2:
			l, n := varint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
		if err := fn(num, v, data); err != nil {
			return err
		}
	}
	return nil
}

// packed decodes a repeated varint field in either encoding: one value
// (data nil) or a packed run.
func packed(v uint64, data []byte) ([]uint64, error) {
	if data == nil {
		return []uint64{v}, nil
	}
	var out []uint64
	for len(data) > 0 {
		x, n := varint(data)
		if n <= 0 {
			return nil, errors.New("profile: bad packed varint")
		}
		out = append(out, x)
		data = data[n:]
	}
	return out, nil
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
