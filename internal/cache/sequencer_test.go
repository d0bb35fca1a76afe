package cache

import (
	"fmt"
	"testing"

	"dve/internal/sim"
	"dve/internal/topology"
)

// TestSequencerSerializesPerLine checks the MSHR contract survives the
// pooled dispatch: same-line transactions run one at a time in arrival
// order, other lines proceed, and release wakes the deferred waiter.
func TestSequencerSerializesPerLine(t *testing.T) {
	eng := sim.NewEngine()
	q := NewSequencer(eng, 5, NewMSHR(0))
	la, lb := topology.Line(64), topology.Line(128)
	var order []int
	q.Do(la, func(release func()) {
		order = append(order, 0)
		eng.Schedule(50, release) // hold the line
	})
	q.Do(la, func(release func()) {
		order = append(order, 1)
		release()
	})
	q.Do(lb, func(release func()) {
		order = append(order, 2)
		release()
	})
	eng.Run()
	want := []int{0, 2, 1}
	if len(order) != len(want) {
		t.Fatalf("ran %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("ran %v, want %v (same-line txn must wait for release; other lines must not)", order, want)
		}
	}
	if q.MSHR().Inflight() != 0 {
		t.Fatalf("%d lines still in flight after all releases", q.MSHR().Inflight())
	}
}

// TestSequencerReentrantDo checks a transaction body may start a new
// transaction on the same line: it must run after this one releases.
func TestSequencerReentrantDo(t *testing.T) {
	eng := sim.NewEngine()
	q := NewSequencer(eng, 5, NewMSHR(0))
	l := topology.Line(64)
	var order []int
	q.Do(l, func(release func()) {
		order = append(order, 0)
		q.Do(l, func(release2 func()) {
			order = append(order, 1)
			release2()
		})
		eng.Schedule(10, release)
	})
	eng.Run()
	if len(order) != 2 || order[0] != 0 || order[1] != 1 {
		t.Fatalf("ran %v, want [0 1]", order)
	}
}

// TestSequencerSteadyStateAllocs pins the uncontended dispatch+release
// round trip to zero allocations once the record pool is warm. A fresh
// sequencer has no telemetry tracer attached (Trace == nil), so this also
// pins the disabled-probe path: instrumentation costs one nil check here,
// never an allocation.
func TestSequencerSteadyStateAllocs(t *testing.T) {
	eng := sim.NewEngine()
	q := NewSequencer(eng, 3, NewMSHR(0))
	if q.Trace != nil {
		t.Fatal("fresh sequencer has a tracer attached")
	}
	body := func(release func()) { release() }
	// Advancing each batch by a multiple of the engine's calendar-ring span
	// keeps every batch in the same (warmed) buckets; 1<<16 cycles is a
	// multiple of any power-of-two ring size up to 64K.
	nop := func() {}
	batch := func() {
		for i := 0; i < 256; i++ {
			q.Do(topology.Line(uint64(i)*64), body)
		}
		eng.Schedule(1<<16, nop)
		eng.Run()
	}
	batch() // warm the record pool and the engine's buckets
	if allocs := testing.AllocsPerRun(20, batch); allocs != 0 {
		t.Fatalf("uncontended Sequencer.Do allocated %.2f times per batch, want 0", allocs)
	}
}

// BenchmarkSequencer measures the uncontended transaction round trip:
// Do -> latency -> body -> release.
func BenchmarkSequencer(b *testing.B) {
	eng := sim.NewEngine()
	q := NewSequencer(eng, 3, NewMSHR(0))
	body := func(release func()) { release() }
	nop := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	const batch = 512
	for n := 0; n < b.N; {
		k := batch
		if b.N-n < k {
			k = b.N - n
		}
		for i := 0; i < k; i++ {
			q.Do(topology.Line(uint64(i)*64), body)
		}
		eng.Schedule(1<<16, nop) // ring-aligned batches, as in the alloc test
		eng.Run()
		n += k
	}
}

// TestSequencerContendedFIFO queues several transactions on one held line:
// each is deferred into the MSHR, re-enters Do when woken, and may be
// deferred again. All must run exactly once, in issue order, while other
// lines come and go in the same MSHR.
func TestSequencerContendedFIFO(t *testing.T) {
	eng := sim.NewEngine()
	q := NewSequencer(eng, 5, NewMSHR(0))
	l := topology.Line(64)
	var order []int
	for i := 0; i < 6; i++ {
		i := i
		q.Do(l, func(release func()) {
			order = append(order, i)
			// Churn another line while this one is held.
			q.Do(l+topology.Line(64*(i+1)), func(r func()) { r() })
			eng.Schedule(sim.Cycle(3+i%3), release)
		})
	}
	eng.Run()
	if fmt.Sprint(order) != "[0 1 2 3 4 5]" {
		t.Fatalf("ran %v, want [0 1 2 3 4 5]", order)
	}
	if q.MSHR().Inflight() != 0 {
		t.Fatalf("%d lines still in flight after all releases", q.MSHR().Inflight())
	}
}
