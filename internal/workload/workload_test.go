package workload

import (
	"testing"

	"dve/internal/topology"
)

func TestSuiteHas20Benchmarks(t *testing.T) {
	suite := Suite(16)
	if len(suite) != 20 {
		t.Fatalf("suite has %d benchmarks, want 20 (Table III)", len(suite))
	}
	names := map[string]bool{}
	for _, s := range suite {
		if err := s.Validate(); err != nil {
			t.Errorf("spec %s invalid: %v", s.Name, err)
		}
		if names[s.Name] {
			t.Errorf("duplicate benchmark %s", s.Name)
		}
		names[s.Name] = true
	}
	// Every Table III benchmark present.
	for _, want := range []string{
		"comd", "xsbench", "graph500", "rsbench",
		"canneal", "freqmine", "streamcluster",
		"barnes", "fft", "ocean_cp",
		"backprop", "bfs", "nw",
		"mg", "bt", "sp", "lu",
		"stencil", "histo", "lbm",
	} {
		if !names[want] {
			t.Errorf("missing benchmark %s", want)
		}
	}
}

func TestDenyWinnersMatchPaper(t *testing.T) {
	if len(DenyWinners) != 10 {
		t.Fatalf("%d deny winners, want 10", len(DenyWinners))
	}
	// The ten the paper lists in Section VII.
	for _, n := range []string{"backprop", "graph500", "fft", "stencil",
		"xsbench", "ocean_cp", "nw", "rsbench", "bfs", "streamcluster"} {
		if !DenyWinners[n] {
			t.Errorf("%s should be a deny winner", n)
		}
	}
	// Deny winners are the read-mostly specs: private fraction below the
	// paper's 46% private-read/write threshold.
	for _, s := range Suite(16) {
		if DenyWinners[s.Name] && s.PrivFrac > 0.46 {
			t.Errorf("%s: deny winner with PrivFrac %.2f > 0.46", s.Name, s.PrivFrac)
		}
		if !DenyWinners[s.Name] && s.PrivFrac < 0.46 {
			t.Errorf("%s: allow winner with PrivFrac %.2f < 0.46", s.Name, s.PrivFrac)
		}
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	spec, ok := ByName("fft", 4)
	if !ok {
		t.Fatal("fft not found")
	}
	g1, _ := NewGenerator(spec)
	g2, _ := NewGenerator(spec)
	for i := 0; i < 1000; i++ {
		for tid := 0; tid < 4; tid++ {
			a, b := g1.Next(tid), g2.Next(tid)
			if a != b {
				t.Fatalf("streams diverge at op %d thread %d: %+v vs %+v", i, tid, a, b)
			}
		}
	}
}

func TestGeneratorThreadsIndependent(t *testing.T) {
	spec, _ := ByName("barnes", 4)
	g, _ := NewGenerator(spec)
	// Thread 0's stream must not depend on whether thread 1 is consumed.
	var solo []Op
	for i := 0; i < 100; i++ {
		solo = append(solo, g.Next(0))
	}
	g2, _ := NewGenerator(spec)
	for i := 0; i < 100; i++ {
		g2.Next(1) // interleave another thread
		if op := g2.Next(0); op != solo[i] {
			t.Fatalf("thread 0 stream depends on thread 1 at op %d", i)
		}
	}
}

func TestGeneratorMixMatchesSpec(t *testing.T) {
	spec := Spec{
		Name: "synthetic", Threads: 2, FootprintMB: 64,
		PrivFrac: 0.5, SharedROFrac: 0.4,
		PrivWriteFrac: 0.6, RWWriteFrac: 0.3,
		Locality: 0.5, Seed: 42,
	}
	g, err := NewGenerator(spec)
	if err != nil {
		t.Fatal(err)
	}
	const n = 200_000
	var priv, ro, rw, writes int
	for i := 0; i < n; i++ {
		op := g.Next(0)
		if op.Kind == Write {
			writes++
		}
		switch classOf(op.Addr) {
		case 0:
			priv++
		case 2:
			rw++
		default:
			ro++
		}
	}
	within := func(got int, want, tol float64) bool {
		f := float64(got) / n
		return f > want-tol && f < want+tol
	}
	if !within(priv, 0.5, 0.02) || !within(ro, 0.4, 0.02) || !within(rw, 0.1, 0.02) {
		t.Fatalf("region mix priv=%d ro=%d rw=%d for n=%d", priv, ro, rw, n)
	}
	// Writes = 0.5*0.6 + 0.1*0.3 = 0.33.
	if !within(writes, 0.33, 0.02) {
		t.Fatalf("write fraction %f, want ~0.33", float64(writes)/n)
	}
}

func TestROIsNeverWritten(t *testing.T) {
	spec, _ := ByName("xsbench", 2)
	g, _ := NewGenerator(spec)
	for i := 0; i < 50_000; i++ {
		op := g.Next(0)
		if op.Kind == Write && classOf(op.Addr) == 1 {
			t.Fatalf("write to shared read-only region at %#x", op.Addr)
		}
	}
}

func TestPrivateRegionsDisjoint(t *testing.T) {
	spec, _ := ByName("lbm", 8)
	g, _ := NewGenerator(spec)
	seen := map[topology.Addr]int{}
	for tid := 0; tid < 8; tid++ {
		for i := 0; i < 10_000; i++ {
			op := g.Next(tid)
			if classOf(op.Addr) != 0 {
				continue
			}
			if prev, ok := seen[op.Addr]; ok && prev != tid {
				t.Fatalf("private address %#x touched by threads %d and %d", op.Addr, prev, tid)
			}
			seen[op.Addr] = tid
		}
	}
}

func TestBarrierCadence(t *testing.T) {
	// With BarrierEvery = N, the barrier follows N memory ops: each interval
	// is N memory ops plus one barrier, so every window of N+1 Next calls
	// holds exactly N memory ops.
	spec, _ := ByName("fft", 2)
	spec.BarrierEvery = 100
	g, _ := NewGenerator(spec)
	memSinceBarrier := 0
	barriers := 0
	for i := 0; i < 1010; i++ {
		if g.Next(0).Kind == Barrier {
			if memSinceBarrier != 100 {
				t.Fatalf("barrier %d after %d memory ops, want 100", barriers, memSinceBarrier)
			}
			barriers++
			memSinceBarrier = 0
		} else {
			memSinceBarrier++
		}
	}
	// 1010 calls = 10 full intervals of 101 calls each.
	if barriers != 10 {
		t.Fatalf("%d barriers in 1010 calls, want 10", barriers)
	}
}

func TestValidateRejectsBadSpecs(t *testing.T) {
	bad := []Spec{
		{Name: "t", Threads: 0, FootprintMB: 10},
		{Name: "t", Threads: 2, FootprintMB: 0},
		{Name: "t", Threads: 2, FootprintMB: 10, PrivFrac: 0.8, SharedROFrac: 0.5},
		{Name: "t", Threads: 2, FootprintMB: 10, PrivWriteFrac: 1.5},
		{Name: "t", Threads: 2, FootprintMB: 10, Locality: -0.1},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("case %d: bad spec validated", i)
		}
	}
}

func TestByName(t *testing.T) {
	if _, ok := ByName("nosuch", 16); ok {
		t.Fatal("found nonexistent benchmark")
	}
	s, ok := ByName("lbm", 16)
	if !ok || s.Name != "lbm" || s.Threads != 16 {
		t.Fatalf("ByName(lbm) = %+v, %v", s, ok)
	}
}

func TestHashSeedStable(t *testing.T) {
	if hashSeed("fft") != hashSeed("fft") {
		t.Fatal("hashSeed not deterministic")
	}
	if hashSeed("fft") == hashSeed("lbm") {
		t.Fatal("hashSeed collides on suite names")
	}
}

// classOf reports the sharing class of an address: 0 private, 1 shared
// read-only, 2 shared read-write.
func classOf(a topology.Addr) uint8 {
	if uint64(a) >= privBase {
		return 0
	}
	if (uint64(a)/lineBytes)%rwSlotStride == 0 {
		return 2
	}
	return 1
}
