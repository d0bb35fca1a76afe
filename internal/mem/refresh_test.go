package mem

import (
	"testing"

	"dve/internal/sim"
	"dve/internal/topology"
)

// alternate issues n reads alternating between rows 0 and 1 of bank 0, so
// every access is a row-buffer conflict and therefore an activation.
func alternate(mc *Controller, cfg *topology.Config, n int) {
	rowStride := topology.Addr(uint64(cfg.RowBufferBytes) * uint64(cfg.BanksPerRank) *
		uint64(cfg.ChannelsPerSkt) * uint64(cfg.Sockets))
	for i := 0; i < n; i++ {
		a := topology.Addr(0)
		if i%2 == 1 {
			a = rowStride
		}
		mc.Read(a, func(bool) {})
	}
}

func refreshWindow(cfg *topology.Config) sim.Cycle {
	return sim.Cycle(cfg.Cycles(tREFIns)) * ticksPerREFW
}

// TestHammerFiresOncePerWindow: activations far beyond the threshold within
// one refresh window fire OnHammer exactly once per row — the crossing is an
// edge, not a level.
func TestHammerFiresOncePerWindow(t *testing.T) {
	eng, mc, cfg := setup(topology.ProtoBaseline)
	cfg.RowHammerThreshold = 8
	mc.EnableRefresh()
	fired := map[uint64]int{}
	mc.OnHammer = func(co topology.DRAMCoord) { fired[co.Row]++ }
	alternate(mc, cfg, 10*8)
	eng.Run()
	if len(fired) != 2 {
		t.Fatalf("OnHammer saw %d rows, want both alternating rows", len(fired))
	}
	for row, n := range fired {
		if n != 1 {
			t.Fatalf("row %d fired OnHammer %d times in one window, want 1", row, n)
		}
	}
	if mc.HammeredRows != 2 {
		t.Fatalf("HammeredRows=%d, want 2", mc.HammeredRows)
	}
}

// TestHammerWindowClearRearms: after a full retention window the counters
// restart, so a row hammered past the threshold again fires OnHammer again
// — one firing per window, not one per run.
func TestHammerWindowClearRearms(t *testing.T) {
	eng, mc, cfg := setup(topology.ProtoBaseline)
	cfg.RowHammerThreshold = 8
	mc.EnableRefresh()
	fired := 0
	mc.OnHammer = func(topology.DRAMCoord) { fired++ }

	alternate(mc, cfg, 2*8+2)
	eng.Run()
	if fired != 2 {
		t.Fatalf("first window fired %d, want 2", fired)
	}
	if activations(mc, topology.DRAMCoord{}) == 0 {
		t.Fatal("activation count invisible before the window clears")
	}

	eng.RunUntil(eng.Now() + refreshWindow(cfg) + 10)
	if got := activations(mc, topology.DRAMCoord{}); got != 0 {
		t.Fatalf("window clear left %d activations on row 0", got)
	}
	alternate(mc, cfg, 2*8+2)
	eng.Run()
	if fired != 4 {
		t.Fatalf("re-armed window fired %d total, want 4", fired)
	}
}

// TestHammerNoCarryAcrossWindowBoundary: activations below the threshold do
// not accumulate across a refresh-window clear. A row parked one activation
// short re-starts from zero in the next window, so the same sub-threshold
// dose again stays silent.
func TestHammerNoCarryAcrossWindowBoundary(t *testing.T) {
	eng, mc, cfg := setup(topology.ProtoBaseline)
	cfg.RowHammerThreshold = 8
	mc.EnableRefresh()
	fired := 0
	mc.OnHammer = func(topology.DRAMCoord) { fired++ }

	// 7 activations per row: one short of the threshold.
	alternate(mc, cfg, 2*7)
	eng.Run()
	if fired != 0 {
		t.Fatalf("sub-threshold dose fired OnHammer %d times", fired)
	}
	eng.RunUntil(eng.Now() + refreshWindow(cfg) + 10)
	// Another sub-threshold dose in the fresh window. If the boundary leaked
	// the old count, 7+7 = 14 >= 8 would fire.
	alternate(mc, cfg, 2*7)
	eng.Run()
	if fired != 0 {
		t.Fatalf("activation count leaked across window boundary: fired=%d", fired)
	}
	// The dose genuinely arms the row: one more activation per row crosses.
	alternate(mc, cfg, 2)
	eng.Run()
	if fired != 2 {
		t.Fatalf("threshold dose in one window fired %d, want 2", fired)
	}
}

// TestHammerCrossingsDeterministic: the same access sequence replayed on a
// fresh controller reproduces the same crossing set at the same cycles —
// the determinism the campaign's flip injection relies on.
func TestHammerCrossingsDeterministic(t *testing.T) {
	type firing struct {
		row uint64
		at  sim.Cycle
	}
	run := func() []firing {
		eng, mc, cfg := setup(topology.ProtoBaseline)
		cfg.RowHammerThreshold = 8
		mc.EnableRefresh()
		var fired []firing
		mc.OnHammer = func(co topology.DRAMCoord) {
			fired = append(fired, firing{co.Row, eng.Now()})
		}
		alternate(mc, cfg, 4*8)
		eng.Run()
		return fired
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("no crossings fired")
	}
	if len(a) != len(b) {
		t.Fatalf("run lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("firing %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// activations reads a row's count in the current refresh window.
func activations(mc *Controller, co topology.DRAMCoord) uint32 {
	if p := mc.hammer[co.Channel].Get(hammerKey(co)); p != nil {
		return *p
	}
	return 0
}

// hammered reports whether an address's row has reached the hammer
// threshold in the current refresh window.
func hammered(mc *Controller, a topology.Addr) bool {
	return activations(mc, mc.amap.Decode(a)) >= mc.hammerThreshold()
}
