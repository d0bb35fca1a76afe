package main

import (
	"bytes"
	"math"
	"runtime/pprof"
	"testing"
	"time"

	"dve/internal/cache"
	"dve/internal/topology"
)

// raceEnabled is set by race_test.go when the race detector instruments the
// test binary. Calls into the race runtime, often unwound without their Go
// caller, then take most of a CPU profile.
var raceEnabled bool

// busyReplicaDir spends d in the fully associative replica-directory scan
// of package dve/internal/cache.
func busyReplicaDir(d time.Duration) {
	c := cache.NewFullyAssoc(2048, 64)
	deadline := time.Now().Add(d)
	for l := topology.Line(0); time.Now().Before(deadline); {
		for i := 0; i < 256; i++ {
			if c.Lookup(l) == nil {
				c.Insert(l, cache.Shared)
			}
			l += 64
		}
	}
}

// A real CPU profile of a busy cache function decodes, lands mostly in the
// cache module, and its shares sum to 1.
func TestProfileAttributesBusyModule(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	busyReplicaDir(time.Second)
	pprof.StopCPUProfile()

	samples, err := parseProfile(&buf)
	if err != nil {
		t.Fatal(err)
	}
	shares, total := attribute(samples)
	if total < 30 {
		t.Fatalf("only %d samples in a second of busy work", total)
	}
	sum := 0.0
	for _, b := range buckets() {
		sum += shares[b]
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %v, want 1: %v", sum, shares)
	}
	if !raceEnabled && shares["cache"] < 0.6 {
		t.Errorf("cache share %.3f of %d samples, want most of them: %v", shares["cache"], total, shares)
	}
}

func TestClassify(t *testing.T) {
	for _, tc := range []struct {
		stack []string
		want  string
	}{
		{[]string{"dve/internal/cache.(*Cache).Insert", "dve/internal/dve.(*ReplicaDir).lookup"}, "cache"},
		{[]string{"dve/internal/coherence.(*LLC).Request.func1", "dve/internal/sim.(*Engine).Run"}, "coherence"},
		{[]string{"dve/internal/stats.(*Histogram).Add"}, "support"},
		{[]string{"main.runCell", "main.main"}, "support"},
		// Library leaves are charged to the repository frame that called them.
		{[]string{"math/rand.(*Rand).Float64", "dve/internal/workload.(*Generator).Next"}, "workload"},
		{[]string{"sync.(*Mutex).Lock", "dve/internal/sim.(*ParallelEngine).Run"}, "sim"},
		{[]string{"compress/flate.(*compressor).deflate", "runtime/pprof.profileWriter"}, "go.other"},
		// Runtime leaves split by what the runtime was doing.
		{[]string{"runtime.nextFreeFast", "runtime.mallocgc", "runtime.newobject", "dve/internal/coherence.(*LLC).Request"}, "go.alloc"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "go.alloc"},
		{[]string{"internal/runtime/maps.(*Map).getWithKeySmall", "runtime.mapaccess2_fast64", "dve/internal/coherence.(*HomeDir).entry"}, "go.map"},
		{[]string{"runtime.memhash64", "runtime.mapassign_fast64"}, "go.map"},
		{[]string{"runtime.memmove", "dve/internal/sim.(*Engine).ringPut"}, "go.other"},
		// A map grow that allocates is allocation.
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "runtime.makemap"}, "go.alloc"},
		{nil, "go.other"},
	} {
		if got := classify(tc.stack); got != tc.want {
			t.Errorf("classify(%q) = %s, want %s", tc.stack, got, tc.want)
		}
	}
}

func TestPkgOf(t *testing.T) {
	for fn, want := range map[string]string{
		"dve/internal/cache.(*Cache).Insert":           "dve/internal/cache",
		"runtime.mallocgc":                             "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall": "internal/runtime/maps",
		"main.main": "main",
		"slices.SortFunc[go.shape.[]dve/internal/x.T,x]": "slices",
	} {
		if got := pkgOf(fn); got != want {
			t.Errorf("pkgOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestParseProfileRejectsTruncatedInput(t *testing.T) {
	// Field 2 (sample), length-delimited, claiming 10 bytes but holding 1.
	if _, err := parseProfile(bytes.NewReader([]byte{0x12, 0x0a, 0x08})); err == nil {
		t.Fatal("truncated profile decoded without error")
	}
}
