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

// moduleSamples decodes a gzipped pprof CPU profile and charges each
// sample's CPU time to a bucket: the module of the sample's innermost
// Horse frame (horse/internal/<module>, horse/api/wire → "wire", the horse
// package → "horse", the benchmark's own package → "perfbench"), else
// the runtime's background GC workers, else "other". Only the fields the
// attribution needs are decoded (profile.proto: sample, location,
// function, string_table).
func moduleSamples(gz []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	type sample struct {
		locs   []uint64
		values []uint64
	}
	var (
		samples   []sample
		strs      []string
		funcName  = map[uint64]int64{}    // function id → string index
		locFuncs  = map[uint64][]uint64{} // location id → function ids, innermost first
		typeNames []int64                 // sample_type type-name string indexes
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			var t int64
			if err := eachField(b, func(n int, v uint64, _ []byte) error {
				if n == 1 {
					t = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			typeNames = append(typeNames, t)
		case 2: // sample
			var s sample
			if err := eachField(b, func(n int, v uint64, p []byte) error {
				switch n {
				case 1:
					s.locs = appendPacked(s.locs, v, p)
				case 2:
					s.values = appendPacked(s.values, v, p)
				}
				return nil
			}); err != nil {
				return err
			}
			samples = append(samples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			if err := eachField(b, func(n int, v uint64, p []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line: function_id is field 1
					return eachField(p, func(ln int, lv uint64, _ []byte) error {
						if ln == 1 {
							fns = append(fns, lv)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locFuncs[id] = fns
		case 5: // function
			var id uint64
			var name int64
			if err := eachField(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	// Samples carry one value per sample_type; CPU profiles list
	// samples/count then cpu/nanoseconds. Charge nanoseconds when present.
	str := func(i int64) string {
		if i >= 0 && int(i) < len(strs) {
			return strs[i]
		}
		return ""
	}
	slot := len(typeNames) - 1
	for i, t := range typeNames {
		if str(t) == "cpu" {
			slot = i
		}
	}
	out := map[string]int64{}
	for _, s := range samples {
		if slot < 0 || slot >= len(s.values) {
			continue
		}
		var names []string
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				names = append(names, str(funcName[fn]))
			}
		}
		out[bucketOf(names)] += int64(s.values[slot])
	}
	return out, nil
}

// bucketOf charges a stack (innermost frame first) to its bucket.
func bucketOf(stack []string) string {
	for _, fn := range stack {
		if m := moduleOf(fn); m != "" {
			return m
		}
	}
	for _, fn := range stack {
		if strings.HasPrefix(fn, "runtime.gcBgMarkWorker") {
			return bucketGC
		}
	}
	return bucketOther
}

// moduleOf maps a symbol to its Horse module, or "" for code outside the
// repository.
func moduleOf(fn string) string {
	switch {
	case strings.HasPrefix(fn, "horse/internal/"):
		rest := fn[len("horse/internal/"):]
		if i := strings.IndexAny(rest, "./"); i > 0 {
			return rest[:i]
		}
		return rest
	case strings.HasPrefix(fn, "horse/api/wire."):
		return "wire"
	case strings.HasPrefix(fn, "horse."):
		return "horse"
	case strings.HasPrefix(fn, "main."), strings.HasPrefix(fn, "horse/perfbench."):
		return "perfbench"
	}
	return ""
}

// cpuShares turns bucket sample totals into shares of the whole profile,
// with a zero entry for every reported bucket the profile never hit, and
// modules not reported on their own folded into "other".
func cpuShares(samples map[string]int64) map[string]float64 {
	out := map[string]float64{}
	for _, b := range shareBuckets() {
		out[b] = 0
	}
	var total int64
	for _, n := range samples {
		total += n
	}
	if total == 0 {
		return out
	}
	for b, n := range samples {
		if _, ok := out[b]; !ok {
			b = bucketOther
		}
		out[b] += float64(n) / float64(total)
	}
	return out
}

var errTruncated = errors.New("truncated protobuf")

// eachField walks the fields of one protobuf message, calling fn with the
// field number and, by wire type, the varint value or the length-delimited
// bytes. Fixed-width fields are skipped (the decoded messages use none).
func eachField(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wt := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wt {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", wt)
		}
		if err := fn(num, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated integer field's values: one varint
// (unpacked encoding) or a packed run of them.
func appendPacked(dst []uint64, v uint64, packed []byte) []uint64 {
	if packed == nil {
		return append(dst, v)
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		packed = packed[n:]
	}
	return dst
}
