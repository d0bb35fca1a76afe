package cache

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"dve/internal/sim"
	"dve/internal/telemetry"
	"dve/internal/topology"
)

// TestSequencerSerializesPerLine checks the MSHR contract survives the
// pooled dispatch: same-line transactions run one at a time in arrival
// order, other lines proceed, and release wakes the deferred waiter.
func TestSequencerSerializesPerLine(t *testing.T) {
	eng := sim.NewEngine()
	q := NewSequencer(eng, 5, telemetry.CompHomeDir, 0)
	la, lb := topology.Line(64), topology.Line(128)
	var order []int
	q.Do("txn", la, func(release func()) {
		order = append(order, 0)
		eng.Schedule(50, release) // hold the line
	})
	q.Do("txn", la, func(release func()) {
		order = append(order, 1)
		release()
	})
	q.Do("txn", lb, func(release func()) {
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
	if q.mshr.waiters.Len() != 0 {
		t.Fatalf("%d lines still in flight after all releases", q.mshr.waiters.Len())
	}
}

// TestSequencerReentrantDo checks a transaction body may start a new
// transaction on the same line: it must run after this one releases.
func TestSequencerReentrantDo(t *testing.T) {
	eng := sim.NewEngine()
	q := NewSequencer(eng, 5, telemetry.CompHomeDir, 0)
	l := topology.Line(64)
	var order []int
	q.Do("txn", l, func(release func()) {
		order = append(order, 0)
		q.Do("txn", l, func(release2 func()) {
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
	q := NewSequencer(eng, 3, telemetry.CompHomeDir, 0)
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
			q.Do("txn", topology.Line(uint64(i)*64), body)
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
	q := NewSequencer(eng, 3, telemetry.CompHomeDir, 0)
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
			q.Do("txn", topology.Line(uint64(i)*64), body)
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
	q := NewSequencer(eng, 5, telemetry.CompHomeDir, 0)
	l := topology.Line(64)
	var order []int
	for i := 0; i < 6; i++ {
		i := i
		q.Do("txn", l, func(release func()) {
			order = append(order, i)
			// Churn another line while this one is held.
			q.Do("txn", l+topology.Line(64*(i+1)), func(r func()) { r() })
			eng.Schedule(sim.Cycle(3+i%3), release)
		})
	}
	eng.Run()
	if fmt.Sprint(order) != "[0 1 2 3 4 5]" {
		t.Fatalf("ran %v, want [0 1 2 3 4 5]", order)
	}
	if q.mshr.waiters.Len() != 0 {
		t.Fatalf("%d lines still in flight after all releases", q.mshr.waiters.Len())
	}
}

// TestSequencerTracedSpans pins the span the sequencer owns: with a tracer
// attached, a transaction's B is emitted once the line is held and its E at
// release, before the deferred waiters wake, both on the sequencer's (comp,
// socket) track; a contended dispatch emits a "defer" instant there.
func TestSequencerTracedSpans(t *testing.T) {
	eng := sim.NewEngine()
	tr := telemetry.NewTracer(telemetry.Options{TraceEvents: true})
	tr.Attach(eng)
	q := NewSequencer(eng, 5, telemetry.CompReplicaDir, 1)
	q.Trace = tr
	l := topology.Line(64)
	eventsAtWake := -1
	q.Do("GETS", l, func(release func()) {
		q.mshr.Defer(l, func() { eventsAtWake = tr.Events() })
		eng.Schedule(50, release) // hold the line
	})
	q.Do("GETX", l, func(release func()) { release() })
	eng.Run()

	var buf bytes.Buffer
	if err := tr.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	evs, err := telemetry.ParseTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := telemetry.ValidateTrace(evs); err != nil {
		t.Fatal(err)
	}
	threads := map[[2]int]string{}
	var got []string
	for _, ev := range evs {
		if ev.Ph == "M" {
			if ev.Name == "thread_name" {
				threads[[2]int{ev.Pid, ev.Tid}], _ = ev.Args["name"].(string)
			}
			continue
		}
		track := threads[[2]int{ev.Pid, ev.Tid}]
		if i := strings.IndexByte(track, '/'); i >= 0 && track[i+1:] != "instant" {
			track = track[:i] + "/lane"
		}
		got = append(got, fmt.Sprintf("%s %s@%d pid%d %s", ev.Ph, ev.Name, ev.Ts, ev.Pid, track))
	}
	want := []string{
		"B GETS@5 pid1 replicadir/lane",
		"i defer@5 pid1 replicadir/instant",
		"E GETS@55 pid1 replicadir/lane",
		"B GETX@60 pid1 replicadir/lane",
		"E GETX@60 pid1 replicadir/lane",
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("trace events:\n got %q\nwant %q", got, want)
	}
	if eventsAtWake != 3 {
		t.Fatalf("waiters woke after %d events, want 3 (the GETS span must end before its waiters run)", eventsAtWake)
	}
}
