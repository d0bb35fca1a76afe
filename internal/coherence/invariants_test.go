package coherence

import (
	"math/rand"
	"testing"

	"dve/internal/cache"
	"dve/internal/topology"
)

// Fuzz-style audit: random access interleavings across cores and sockets
// must leave the full-size system in an invariant-respecting quiescent
// state, for every protocol. This is the simulator-scale complement of the
// bounded model checking in internal/mcheck.
func TestInvariantsUnderRandomTraffic(t *testing.T) {
	for _, p := range []topology.Protocol{topology.ProtoBaseline, topology.ProtoIntelMirror} {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			s := newSys(p)
			r := rand.New(rand.NewSource(42))
			inflight := 0
			for i := 0; i < 20_000; i++ {
				core := r.Intn(s.Cfg.TotalCores())
				write := r.Intn(3) == 0
				// A small line pool maximizes sharing conflict.
				a := topology.Addr(r.Intn(512) * 64)
				inflight++
				s.Access(core, write, a, func() { inflight-- })
				if i%7 == 0 {
					s.Drain() // interleave drain points
				}
			}
			s.Drain()
			if inflight != 0 {
				t.Fatalf("%d accesses never completed", inflight)
			}
			for _, viol := range s.CheckInvariants() {
				t.Error(viol)
			}
		})
	}
}

func TestInvariantsCleanSystem(t *testing.T) {
	s := newSys(topology.ProtoBaseline)
	if v := s.CheckInvariants(); len(v) != 0 {
		t.Fatalf("fresh system violates invariants: %v", v)
	}
	access(t, s, 0, true, 0)
	access(t, s, 8, false, 0)
	access(t, s, 3, false, 4096)
	if v := s.CheckInvariants(); len(v) != 0 {
		t.Fatalf("simple sequence violates invariants: %v", v)
	}
}

// The audit must actually detect corruption (a checker that passes
// everything checks nothing).
func TestInvariantsDetectCorruption(t *testing.T) {
	s := newSys(topology.ProtoBaseline)
	access(t, s, 0, true, 0)  // socket 0 LLC holds line 0 in M
	access(t, s, 8, true, 64) // socket 1 LLC holds line 64 in M

	// Corrupt: force socket 1's LLC to also claim line 0 writable.
	l := s.AMap.LineOf(0)
	e, _, _ := s.LLCs[1].store.Insert(l, 3 /* cache.Modified */)
	_ = e
	v := s.CheckInvariants()
	if len(v) == 0 {
		t.Fatal("two writers of one line went undetected")
	}
}

// The audit's report is part of every campaign journal, so its exact text
// is pinned: one line writable in LLC 0 and readable in LLC 1, and one the
// other way round, planted by direct store edits on a fresh system.
func TestInvariantsSWMRReportGolden(t *testing.T) {
	s := newSys(topology.ProtoBaseline)
	a, b := s.AMap.LineOf(0), s.AMap.LineOf(4096)
	s.LLCs[0].store.Insert(a, cache.Modified)
	s.LLCs[1].store.Insert(a, cache.Shared)
	s.LLCs[0].store.Insert(b, cache.Shared)
	s.LLCs[1].store.Insert(b, cache.Modified)
	got := s.CheckInvariants()
	want := []string{
		"LLC 0 holds 0x0 in M but home dir says I/owner -1",
		"LLC 1 holds 0x1000 in M but home dir says I/owner -1",
		"SWMR: line 0x0 held by 1 writers / 1 readers (holders [{0 3} {1 1}]; home=0 dir=I owner=-1 sharers=[false false])",
		"SWMR: line 0x1000 held by 1 writers / 1 readers (holders [{0 1} {1 3}]; home=1 dir=I owner=-1 sharers=[false false])",
	}
	if len(got) != len(want) {
		t.Fatalf("got %d violations, want %d:\n%#v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("violation %d:\n got %q\nwant %q", i, got[i], want[i])
		}
	}
}
