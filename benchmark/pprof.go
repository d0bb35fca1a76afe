package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file decodes the CPU profiles runtime/pprof writes (gzipped
// protobuf, profile.proto) with the standard library only, and charges
// each sample to the repository module or runtime bucket that spent it.

// stackSample is one profile sample: function names leaf first, and the
// sample count.
type stackSample struct {
	stack []string
	count int64
}

// Field numbers from profile.proto.
const (
	profSample      = 2
	profLocation    = 4
	profFunction    = 5
	profStringTable = 6

	sampleLocationID = 1
	sampleValue      = 2

	locationID   = 1
	locationLine = 4

	lineFunctionID = 1

	functionID   = 1
	functionName = 2
)

// parseProfile decodes a CPU profile into stacks. The first sample value
// (samples/count for CPU profiles) is the weight; inlined frames of one
// location expand leaf first, as profile.proto orders them.
func parseProfile(r io.Reader) ([]stackSample, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("read profile: %w", err)
	}
	if len(raw) >= 2 && raw[0] == 0x1f && raw[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(raw))
		if err != nil {
			return nil, fmt.Errorf("profile gzip: %w", err)
		}
		if raw, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile gzip: %w", err)
		}
	}

	type rawSample struct {
		locs  []uint64
		count int64
	}
	var (
		samples   []rawSample
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, leaf first
		funcNames = map[uint64]int64{}    // function id -> string table index
		strs      []string
	)
	err = walkFields(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case profSample:
			var s rawSample
			first := true
			err := walkFields(b, func(field, wire int, v uint64, b []byte) error {
				switch field {
				case sampleLocationID:
					s.locs = appendVarints(s.locs, wire, v, b)
				case sampleValue:
					if vals := appendVarints(nil, wire, v, b); first && len(vals) > 0 {
						s.count = int64(vals[0])
						first = false
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case profLocation:
			var id uint64
			var funcs []uint64
			err := walkFields(b, func(field, wire int, v uint64, b []byte) error {
				switch field {
				case locationID:
					id = v
				case locationLine:
					return walkFields(b, func(field, wire int, v uint64, _ []byte) error {
						if field == lineFunctionID {
							funcs = append(funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = funcs
			return err
		case profFunction:
			var id uint64
			var name int64
			err := walkFields(b, func(field, wire int, v uint64, _ []byte) error {
				switch field {
				case functionID:
					id = v
				case functionName:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case profStringTable:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		st := stackSample{count: s.count}
		for _, loc := range s.locs {
			for _, fid := range locFuncs[loc] {
				name := "?"
				if i, ok := funcNames[fid]; ok && i >= 0 && i < int64(len(strs)) {
					name = strs[i]
				}
				st.stack = append(st.stack, name)
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// Protobuf wire types.
const (
	wireVarint = 0
	wireI64    = 1
	wireBytes  = 2
	wireI32    = 5
)

var errTruncated = errors.New("profile: truncated protobuf")

// walkFields calls fn for every field of a protobuf message: v carries a
// varint (or fixed-width) value, b a length-delimited payload.
func walkFields(msg []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := uvarint(msg)
		if n <= 0 {
			return errTruncated
		}
		msg = msg[n:]
		field, wire := int(key>>3), int(key&7)
		var (
			v uint64
			b []byte
		)
		switch wire {
		case wireVarint:
			if v, n = uvarint(msg); n <= 0 {
				return errTruncated
			}
			msg = msg[n:]
		case wireI64, wireI32:
			w := 8
			if wire == wireI32 {
				w = 4
			}
			if len(msg) < w {
				return errTruncated
			}
			for i := w - 1; i >= 0; i-- {
				v = v<<8 | uint64(msg[i])
			}
			msg = msg[w:]
		case wireBytes:
			l, n := uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errTruncated
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed or not.
func appendVarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire != wireBytes {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

// uvarint decodes a base-128 varint; n <= 0 marks a truncated input.
func uvarint(b []byte) (v uint64, n int) {
	for i, c := range b {
		if i == 10 {
			return 0, -1
		}
		v |= uint64(c&0x7f) << (7 * uint(i))
		if c < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

// modules are the repository's simulation layers, each a package under
// dve/internal. Every other repository package is "support".
var modules = []string{"sim", "workload", "cache", "coherence", "dve", "mem", "noc"}

// Buckets besides the modules.
const (
	bucketSupport = "support"
	bucketMap     = "go.map"
	bucketAlloc   = "go.alloc"
	bucketOther   = "go.other"
)

// shareMetric names the per-layer metric of a bucket.
func shareMetric(bucket string) string {
	if strings.HasPrefix(bucket, "go.") {
		return bucket + "_frac"
	}
	return bucket + ".self_frac"
}

// buckets lists every attribution bucket in report order.
func buckets() []string {
	return append(append([]string(nil), modules...), bucketSupport, bucketMap, bucketAlloc, bucketOther)
}

// attribute returns each bucket's share of the samples (summing to 1 when
// there are any) and the total sample count.
func attribute(samples []stackSample) (map[string]float64, int64) {
	counts := map[string]int64{}
	var total int64
	for _, s := range samples {
		counts[classify(s.stack)] += s.count
		total += s.count
	}
	shares := map[string]float64{}
	for _, b := range buckets() {
		shares[b] = ratio(float64(counts[b]), float64(total))
	}
	return shares, total
}

// classify charges one stack (leaf first) to a bucket by its leaf frame:
//   - a repository leaf goes to its module (stats, topology, telemetry, the
//     facade and the benchmark itself are "support");
//   - a runtime leaf goes to go.alloc when the runtime frames above it
//     include allocation or garbage collection (mallocgc, GC assist,
//     background mark and sweep), else to go.map when they include a map
//     operation, else to go.other;
//   - any other standard-library leaf (math/rand, sort, sync, ...) works on
//     behalf of the nearest repository frame above it and is charged there;
//     with none (the profiler's own goroutine) it is go.other.
func classify(stack []string) string {
	if len(stack) == 0 {
		return bucketOther
	}
	if isRuntime(pkgOf(stack[0])) {
		return runtimeBucket(stack)
	}
	for _, f := range stack {
		if b, ok := repoBucket(pkgOf(f)); ok {
			return b
		}
	}
	return bucketOther
}

// runtimeBucket classifies a stack whose leaf is a runtime frame by the
// run of runtime frames it starts with.
func runtimeBucket(stack []string) string {
	sawMap := false
	for _, f := range stack {
		if !isRuntime(pkgOf(f)) {
			break
		}
		if hasAnyPrefix(f, allocFrames) {
			return bucketAlloc
		}
		sawMap = sawMap || hasAnyPrefix(f, mapFrames)
	}
	if sawMap {
		return bucketMap
	}
	return bucketOther
}

// allocFrames are the runtime entry points of allocation and collection.
var allocFrames = []string{
	"runtime.mallocgc", "runtime.newobject", "runtime.newarray", "runtime.makeslice",
	"runtime.growslice", "runtime.gcAssistAlloc", "runtime.gcBgMarkWorker", "runtime.gcDrain",
	"runtime.gcStart", "runtime.gcMark", "runtime.markroot", "runtime.scanobject",
	"runtime.bgsweep", "runtime.bgscavenge", "runtime.sweepone", "runtime.(*mheap)",
	"runtime.(*mcache)", "runtime.(*mcentral)", "runtime.(*mspan).sweep", "runtime.(*gcWork)",
	"runtime.wbBufFlush", "runtime.gcWriteBarrier", "runtime.bulkBarrierPreWrite", "runtime._GC",
}

// mapFrames are the runtime's map implementation and its hash functions.
var mapFrames = []string{
	"runtime.map", "runtime.makemap", "runtime.evacuate", "runtime.growWork", "runtime.hashGrow",
	"internal/runtime/maps.", "runtime.memhash", "runtime.aeshash", "runtime.strhash",
	"runtime.interhash", "runtime.nilinterhash", "runtime.f64hash", "runtime.typehash",
}

func hasAnyPrefix(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

// isRuntime reports whether a package is the Go runtime proper.
func isRuntime(pkg string) bool {
	return pkg == "runtime" || strings.HasPrefix(pkg, "runtime/internal/") ||
		strings.HasPrefix(pkg, "internal/runtime/")
}

// repoBucket maps a repository package to its bucket; ok is false for
// packages outside the repository.
func repoBucket(pkg string) (string, bool) {
	if pkg == "main" || pkg == "dve" || strings.HasPrefix(pkg, "dve/benchmark") {
		return bucketSupport, true
	}
	rest, ok := strings.CutPrefix(pkg, "dve/internal/")
	if !ok {
		return "", false
	}
	for _, m := range modules {
		if rest == m {
			return m, true
		}
	}
	return bucketSupport, true
}

// pkgOf returns the import path of a symbol such as
// "dve/internal/cache.(*Cache).Insert" or "runtime.mallocgc".
func pkgOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // generic instantiation: type arguments may hold slashes
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}
