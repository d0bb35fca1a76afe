package sim

import "testing"

// The engine's zero-alloc contract: once bucket and free-list capacity has
// grown to the working set, scheduling and dispatching events allocates
// nothing. These tests pin that with testing.AllocsPerRun so a regression
// (say, reintroducing per-event boxing) fails loudly instead of quietly
// slowing every experiment.
//
// Each batch ends with an event exactly one ring revolution after its start,
// so every batch lands in the same calendar buckets and the single warm-up
// batch grows all the capacity the measured batches need. (A real simulation
// reaches the same steady state by warming buckets as time wraps the ring.)

func TestScheduleSteadyStateAllocs(t *testing.T) {
	e := NewEngine()
	fn := func() {}
	batch := func() {
		for i := 0; i < 4096; i++ {
			e.Schedule(benchDelays[i%len(benchDelays)], fn)
		}
		e.Schedule(ringSize, fn) // align the next batch to the same buckets
		e.Run()
	}
	batch() // grow bucket/heap capacity to the working set
	if allocs := testing.AllocsPerRun(20, batch); allocs != 0 {
		t.Fatalf("steady-state Schedule+Run allocated %.2f times per batch, want 0", allocs)
	}
}

// addHandler is the typed-path handler under test; package-level so that
// scheduling it is allocation-free.
func addHandler(arg any, v uint64) { *arg.(*uint64) += v }

func TestScheduleFnSteadyStateAllocs(t *testing.T) {
	e := NewEngine()
	var total uint64
	batch := func() {
		for i := 0; i < 4096; i++ {
			e.ScheduleFn(benchDelays[i%len(benchDelays)], addHandler, &total, 1)
		}
		e.ScheduleFn(ringSize, addHandler, &total, 0)
		e.Run()
	}
	batch()
	if allocs := testing.AllocsPerRun(20, batch); allocs != 0 {
		t.Fatalf("steady-state ScheduleFn+Run allocated %.2f times per batch, want 0", allocs)
	}
	if total == 0 {
		t.Fatal("handler never ran")
	}
}

// TestDispatchProbeDisabledAllocs pins the telemetry contract on the hot
// path: with OnDispatch nil (the default — no tracer attached) the dispatch
// loop pays one predictable nil check and allocates nothing. A regression
// here would tax every untraced experiment for an observability feature it
// did not ask for.
func TestDispatchProbeDisabledAllocs(t *testing.T) {
	e := NewEngine()
	if e.OnDispatch != nil {
		t.Fatal("fresh engine has a dispatch probe attached")
	}
	var total uint64
	batch := func() {
		for i := 0; i < 4096; i++ {
			e.ScheduleFn(benchDelays[i%len(benchDelays)], addHandler, &total, 1)
		}
		e.ScheduleFn(ringSize, addHandler, &total, 0)
		e.Run()
	}
	batch()
	if allocs := testing.AllocsPerRun(20, batch); allocs != 0 {
		t.Fatalf("dispatch with nil probe allocated %.2f times per batch, want 0", allocs)
	}
}

func TestDaemonScheduleSteadyStateAllocs(t *testing.T) {
	e := NewEngine()
	var ticks uint64
	tick := func() { ticks++ }
	batch := func() {
		// A daemon heartbeat plus the demand events that keep Run alive.
		e.ScheduleDaemon(1, tick)
		for i := 0; i < 256; i++ {
			e.ScheduleFn(benchDelays[i%len(benchDelays)], addHandler, &ticks, 0)
		}
		e.ScheduleFn(ringSize, addHandler, &ticks, 0)
		e.Run()
	}
	batch()
	if allocs := testing.AllocsPerRun(20, batch); allocs != 0 {
		t.Fatalf("steady-state daemon scheduling allocated %.2f times per batch, want 0", allocs)
	}
}

// TestFreshEngineAllocs pins the cost of a new engine's first pass over its
// ring: building an engine, putting one event in each of the ringSize
// buckets and running them must allocate a handful of objects (the engine
// itself and the node slab's log2 growth), not one bucket backing array
// per first-touched bucket.
func TestFreshEngineAllocs(t *testing.T) {
	var total uint64
	allocs := testing.AllocsPerRun(5, func() {
		e := NewEngine()
		for d := Cycle(0); d < ringSize; d++ {
			e.ScheduleFn(d, addHandler, &total, 1)
		}
		e.Run()
	})
	if allocs > 32 {
		t.Fatalf("fresh engine: %.0f allocations to fill and drain every bucket once, want <= 32", allocs)
	}
	if total == 0 {
		t.Fatal("handler never ran")
	}
}
