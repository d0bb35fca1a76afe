// Package perf holds the CLIs' host-profiling helpers: CPU and heap
// profiles written with runtime/pprof. The simulator's own performance is
// measured by the benchmark module (see BENCHMARK.json).
package perf

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// StartCPUProfile begins a CPU profile into path and returns the function
// that stops it. An empty path is a no-op (stop is still non-nil), so CLIs
// can call it unconditionally with their flag value.
func StartCPUProfile(path string) (stop func(), err error) {
	if path == "" {
		return func() {}, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("perf: cpu profile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("perf: cpu profile: %w", err)
	}
	return func() {
		pprof.StopCPUProfile()
		f.Close()
	}, nil
}

// StartMemProfile turns on exact allocation profiling and returns the
// function that writes the heap profile to path. It sets
// runtime.MemProfileRate to 1, so every allocation from here on is
// recorded and `go tool pprof -sample_index=alloc_objects` reports exact
// counts rather than one sample per 512 KB. Call it before the work to be
// profiled. The profile is written after a GC, so the in-use view shows
// live objects, not transient garbage. An empty path is a no-op (stop is
// still non-nil); the rate changes only what is recorded, never a result.
func StartMemProfile(path string) (stop func(), err error) {
	if path == "" {
		return func() {}, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("perf: heap profile: %w", err)
	}
	runtime.MemProfileRate = 1
	return func() {
		runtime.GC()
		err := pprof.WriteHeapProfile(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perf: heap profile: %v\n", err)
		}
	}, nil
}
