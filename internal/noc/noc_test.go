package noc

import (
	"testing"
	"testing/quick"

	"dve/internal/sim"
	"dve/internal/topology"
)

func TestMeshHops(t *testing.T) {
	m := NewMesh(2, 4, 1)
	if m.Tiles() != 8 {
		t.Fatalf("Tiles = %d, want 8", m.Tiles())
	}
	// tile 0 = (0,0), tile 7 = (1,3): distance 1+3 = 4.
	if m.Hops(0, 7) != 4 {
		t.Fatalf("Hops(0,7) = %d, want 4", m.Hops(0, 7))
	}
	if m.Hops(3, 3) != 0 {
		t.Fatal("Hops to self != 0")
	}
	if m.Latency(0, 7) != 4 {
		t.Fatalf("Latency(0,7) = %d, want 4", m.Latency(0, 7))
	}
}

// Property: mesh distance is a metric (symmetric, zero iff equal, triangle
// inequality).
func TestMeshMetricProperty(t *testing.T) {
	m := NewMesh(2, 4, 1)
	f := func(a, b, c uint8) bool {
		x, y, z := int(a)%8, int(b)%8, int(c)%8
		if m.Hops(x, y) != m.Hops(y, x) {
			return false
		}
		if (m.Hops(x, y) == 0) != (x == y) {
			return false
		}
		return m.Hops(x, z) <= m.Hops(x, y)+m.Hops(y, z)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// sharedLink builds a single-engine link (both socket slots aliased), the
// serial-mode shape every pre-partitioning caller used.
func sharedLink(t *testing.T, eng *sim.Engine, latency sim.Cycle) *Link {
	t.Helper()
	l, err := NewLink([2]*sim.Engine{eng, eng}, nil, latency)
	if err != nil {
		t.Fatalf("NewLink: %v", err)
	}
	return l
}

func TestLinkDeliveryAndAccounting(t *testing.T) {
	eng := sim.NewEngine()
	l := sharedLink(t, eng, 150)
	var arrived sim.Cycle
	l.Send(0, CtrlBytes, func() { arrived = eng.Now() })
	eng.Run()
	// 8 bytes -> 1 serialization cycle + 150 latency.
	if arrived != 151 {
		t.Fatalf("ctrl delivered at %d, want 151", arrived)
	}
	if l.Msgs() != 1 || l.Bytes() != CtrlBytes {
		t.Fatalf("accounting: msgs=%d bytes=%d", l.Msgs(), l.Bytes())
	}
}

func TestLinkSerialization(t *testing.T) {
	eng := sim.NewEngine()
	l := sharedLink(t, eng, 100)
	var first, second sim.Cycle
	// Two back-to-back data messages in the same direction must serialize.
	l.Send(0, DataBytes, func() { first = eng.Now() })
	l.Send(0, DataBytes, func() { second = eng.Now() })
	eng.Run()
	ser := sim.Cycle((DataBytes + LinkBytesPerCycle - 1) / LinkBytesPerCycle)
	if first != ser+100 {
		t.Fatalf("first delivered at %d, want %d", first, ser+100)
	}
	if second != 2*ser+100 {
		t.Fatalf("second delivered at %d, want %d (serialized)", second, 2*ser+100)
	}
}

func TestLinkFullDuplex(t *testing.T) {
	eng := sim.NewEngine()
	l := sharedLink(t, eng, 100)
	var a, b sim.Cycle
	l.Send(0, DataBytes, func() { a = eng.Now() })
	l.Send(1, DataBytes, func() { b = eng.Now() })
	eng.Run()
	if a != b {
		t.Fatalf("opposite directions should not serialize: %d vs %d", a, b)
	}
}

func TestLinkReset(t *testing.T) {
	eng := sim.NewEngine()
	l := sharedLink(t, eng, 10)
	l.Send(0, CtrlBytes, func() {})
	eng.Run()
	l.Reset()
	if l.Msgs() != 0 || l.Bytes() != 0 {
		t.Fatal("Reset did not clear counters")
	}
}

func TestLinkResetDir(t *testing.T) {
	eng := sim.NewEngine()
	l := sharedLink(t, eng, 10)
	l.Send(0, CtrlBytes, func() {})
	l.Send(1, DataBytes, func() {})
	eng.Run()
	l.ResetDir(0)
	if l.Msgs() != 1 || l.Bytes() != DataBytes {
		t.Fatalf("after ResetDir(0): msgs=%d bytes=%d, want the socket-1 send only", l.Msgs(), l.Bytes())
	}
}

func TestLinkRejectsDegenerateLatency(t *testing.T) {
	eng := sim.NewEngine()
	if _, err := NewLink([2]*sim.Engine{eng, eng}, nil, 0); err == nil {
		t.Fatal("zero-cycle link latency accepted; the lookahead window would be degenerate")
	}
	if _, err := NewLink([2]*sim.Engine{eng, nil}, nil, 10); err == nil {
		t.Fatal("nil per-socket engine accepted")
	}
}

func TestLinkMinLatency(t *testing.T) {
	eng := sim.NewEngine()
	l := sharedLink(t, eng, 150)
	// Minimum delivery distance = 1 serialization cycle + propagation.
	if got := l.MinLatency(); got != 151 {
		t.Fatalf("MinLatency = %d, want 151", got)
	}
	var arrived sim.Cycle
	l.Send(0, CtrlBytes, func() { arrived = eng.Now() })
	eng.Run()
	if arrived < l.MinLatency() {
		t.Fatalf("delivery at %d beat MinLatency %d", arrived, l.MinLatency())
	}
}

// TestLinkCrossPartitionDelivery drives the mailbox path: two partitions,
// a send from each side, deliveries land on the destination partition at
// the same cycles the serial link would produce.
func TestLinkCrossPartitionDelivery(t *testing.T) {
	pe := sim.NewParallelEngine(2, 151)
	l, err := NewLink([2]*sim.Engine{pe.Part(0), pe.Part(1)}, pe, 150)
	if err != nil {
		t.Fatalf("NewLink: %v", err)
	}
	var at0, at1 sim.Cycle
	pe.Part(0).Schedule(0, func() {
		l.Send(0, CtrlBytes, func() { at1 = pe.Part(1).Now() })
	})
	pe.Part(1).Schedule(0, func() {
		l.Send(1, CtrlBytes, func() { at0 = pe.Part(0).Now() })
	})
	pe.Run()
	if at0 != 151 || at1 != 151 {
		t.Fatalf("cross deliveries at %d/%d, want 151/151", at0, at1)
	}
	if l.Msgs() != 2 {
		t.Fatalf("msgs = %d, want 2", l.Msgs())
	}
}

// countHandler is the typed-path delivery handler; package-level so that
// SendFn calls with it are allocation-free.
func countHandler(arg any, v uint64) { *arg.(*uint64) += v }

// TestLinkSendFnDisabledProbeAllocs pins the telemetry contract on the link
// hot path: with Trace nil (the default) SendFn costs one nil check and
// zero allocations. Each batch schedules an alignment event exactly one
// ring revolution (4096 cycles) after its start so every batch reuses the
// same calendar buckets and the warm-up batch grows all needed capacity.
func TestLinkSendFnDisabledProbeAllocs(t *testing.T) {
	eng := sim.NewEngine()
	l := sharedLink(t, eng, 150)
	if l.Trace != nil {
		t.Fatal("fresh link has a tracer attached")
	}
	var delivered uint64
	nop := func() {}
	batch := func() {
		start := eng.Now()
		for i := 0; i < 64; i++ {
			// 64 data messages one way: 64 serialization slots + latency
			// stay well inside one ring revolution.
			l.SendFn(0, DataBytes, countHandler, &delivered, 1)
		}
		eng.At(start+4096, nop)
		eng.Run()
	}
	batch()
	if allocs := testing.AllocsPerRun(20, batch); allocs != 0 {
		t.Fatalf("SendFn with nil tracer allocated %.2f times per batch, want 0", allocs)
	}
	if delivered == 0 {
		t.Fatal("no deliveries ran")
	}
}

func TestLinkLatencyFromConfig(t *testing.T) {
	c := topology.Default(topology.ProtoDeny)
	eng := sim.NewEngine()
	l := sharedLink(t, eng, sim.Cycle(c.InterSocketCyc()))
	if l.latency != 150 {
		t.Fatalf("link latency = %d, want 150", l.latency)
	}
}
