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

// WriteHeapProfile writes a post-GC heap profile to path; an empty path is
// a no-op.
func WriteHeapProfile(path string) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("perf: heap profile: %w", err)
	}
	defer f.Close()
	runtime.GC() // report live objects, not transient garbage
	if err := pprof.WriteHeapProfile(f); err != nil {
		return fmt.Errorf("perf: heap profile: %w", err)
	}
	return nil
}
