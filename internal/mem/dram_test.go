package mem

import (
	"testing"

	"dve/internal/sim"
	"dve/internal/topology"
)

func setup(p topology.Protocol) (*sim.Engine, *Controller, *topology.Config) {
	cfg := topology.Default(p)
	eng := sim.NewEngine()
	amap := topology.NewAddrMap(&cfg)
	mc := NewController(eng, &cfg, amap, 0)
	return eng, mc, &cfg
}

func TestReadTimingClosedThenHit(t *testing.T) {
	eng, mc, cfg := setup(topology.ProtoBaseline)
	tCL := sim.Cycle(cfg.Cycles(cfg.TCLns))
	tRCD := sim.Cycle(cfg.Cycles(cfg.TRCDns))

	var first, second sim.Cycle
	mc.Read(0, func(bool) { first = eng.Now() })
	eng.Run()
	if first != tRCD+tCL+burstCycles {
		t.Fatalf("closed-bank read at %d, want %d", first, tRCD+tCL+burstCycles)
	}
	// Same row again: row-buffer hit, only tCL (+burst), measured from now.
	base := eng.Now()
	mc.Read(64, func(bool) { second = eng.Now() })
	eng.Run()
	if second-base != tCL+burstCycles {
		t.Fatalf("row hit took %d, want %d", second-base, tCL+burstCycles)
	}
	if mc.RowHits != 1 || mc.RowMisses != 1 {
		t.Fatalf("rowHits=%d rowMisses=%d, want 1/1", mc.RowHits, mc.RowMisses)
	}
}

func TestRowConflictCostsPrecharge(t *testing.T) {
	eng, mc, cfg := setup(topology.ProtoBaseline)
	// Two addresses in the same bank, different rows: second access pays
	// tRP + tRCD + tCL. Global stride = local row stride x sockets (the
	// socket-interleave bit is stripped before bank decode).
	rowBytes := uint64(cfg.RowBufferBytes) * uint64(cfg.BanksPerRank) * uint64(cfg.Sockets)
	a := topology.Addr(0)
	b := topology.Addr(rowBytes) // same bank 0, next row
	ca, cb := topology.NewAddrMap(cfg).Decode(a), topology.NewAddrMap(cfg).Decode(b)
	if ca.Bank != cb.Bank || ca.Row == cb.Row {
		t.Fatalf("test addresses wrong: %+v vs %+v", ca, cb)
	}
	mc.Read(a, func(bool) {})
	eng.Run()
	base := eng.Now()
	var done sim.Cycle
	mc.Read(b, func(bool) { done = eng.Now() })
	eng.Run()
	want := sim.Cycle(cfg.Cycles(cfg.TRPns)+cfg.Cycles(cfg.TRCDns)+cfg.Cycles(cfg.TCLns)) + burstCycles
	if done-base != want {
		t.Fatalf("conflict read took %d, want %d", done-base, want)
	}
}

func TestBankSerialization(t *testing.T) {
	eng, mc, _ := setup(topology.ProtoBaseline)
	var t1, t2 sim.Cycle
	// Same bank, same row: second read must wait for the first.
	mc.Read(0, func(bool) { t1 = eng.Now() })
	mc.Read(64, func(bool) { t2 = eng.Now() })
	eng.Run()
	if t2 <= t1 {
		t.Fatalf("same-bank reads did not serialize: %d then %d", t1, t2)
	}
}

func TestBankParallelismAcrossBanks(t *testing.T) {
	eng, mc, cfg := setup(topology.ProtoBaseline)
	var t1, t2 sim.Cycle
	// Different banks: overlap except for the shared data bus.
	mc.Read(0, func(bool) { t1 = eng.Now() })
	mc.Read(topology.Addr(cfg.RowBufferBytes*cfg.Sockets), func(bool) { t2 = eng.Now() })
	eng.Run()
	if t2-t1 != burstCycles {
		t.Fatalf("bank-parallel reads gap = %d, want %d (bus only)", t2-t1, burstCycles)
	}
}

func TestTwoChannelsParallel(t *testing.T) {
	eng, mc, _ := setup(topology.ProtoDeny) // 2 channels
	var t1, t2 sim.Cycle
	// Adjacent lines stripe across channels: full overlap.
	mc.Read(0, func(bool) { t1 = eng.Now() })
	mc.Read(64, func(bool) { t2 = eng.Now() })
	eng.Run()
	if t1 != t2 {
		t.Fatalf("cross-channel reads should fully overlap: %d vs %d", t1, t2)
	}
}

func TestMirrorWriteBothChannels(t *testing.T) {
	eng, mc, _ := setup(topology.ProtoIntelMirror)
	mc.Mirror = true
	mc.Write(0, func() {})
	eng.Run()
	if mc.Writes != 2 {
		t.Fatalf("mirror write hit %d channels, want 2", mc.Writes)
	}
}

func TestMirrorReadLoadBalances(t *testing.T) {
	eng, mc, _ := setup(topology.ProtoIntelMirror)
	mc.Mirror = true
	// Many reads to the same bank: with load balancing both channels serve.
	for i := 0; i < 8; i++ {
		mc.Read(0, func(bool) {})
	}
	eng.Run()
	if mc.channels[0].banks[0].nextFree == 0 || mc.channels[1].banks[0].nextFree == 0 {
		t.Fatal("mirror reads did not use both channels")
	}
}

func TestMirrorReadsFasterThanSingleChannel(t *testing.T) {
	// The bandwidth benefit that Intel-mirroring++ gets: N same-bank reads
	// complete sooner with two mirrored channels than with one.
	run := func(mirror bool) sim.Cycle {
		eng, mc, _ := setup(topology.ProtoIntelMirror)
		mc.Mirror = mirror
		var last sim.Cycle
		for i := 0; i < 16; i++ {
			mc.Read(0, func(bool) { last = eng.Now() })
		}
		eng.Run()
		return last
	}
	if m, s := run(true), run(false); m >= s {
		t.Fatalf("mirrored reads (%d) not faster than single-channel (%d)", m, s)
	}
}

func TestFaultFn(t *testing.T) {
	eng, mc, _ := setup(topology.ProtoBaseline)
	mc.FaultFn = func(a topology.Addr) bool { return a == 128 }
	results := map[topology.Addr]bool{}
	for _, a := range []topology.Addr{0, 128} {
		a := a
		mc.Read(a, func(failed bool) { results[a] = failed })
	}
	eng.Run()
	if results[0] || !results[128] {
		t.Fatalf("fault outcomes wrong: %v", results)
	}
	if mc.FailedReads != 1 {
		t.Fatalf("FailedReads = %d, want 1", mc.FailedReads)
	}
}

func TestResetStats(t *testing.T) {
	eng, mc, _ := setup(topology.ProtoBaseline)
	mc.Read(0, func(bool) {})
	mc.Write(64, func() {})
	eng.Run()
	mc.ResetStats()
	if mc.Reads != 0 || mc.Writes != 0 || mc.RowHits != 0 || mc.RowMisses != 0 || mc.BusyCycles != 0 {
		t.Fatal("ResetStats left nonzero counters")
	}
}

func TestRefreshBlocksBanks(t *testing.T) {
	eng, mc, cfg := setup(topology.ProtoBaseline)
	mc.EnableRefresh()
	// Run past one refresh interval; a read issued right at the refresh
	// boundary must wait out tRFC.
	eng.RunUntil(sim.Cycle(cfg.Cycles(tREFIns)) + 1)
	if mc.Refreshes == 0 {
		t.Fatal("no refresh fired within tREFI")
	}
	var done sim.Cycle
	base := eng.Now()
	mc.Read(0, func(bool) { done = eng.Now() })
	eng.Run()
	minLat := sim.Cycle(cfg.Cycles(cfg.TRCDns)+cfg.Cycles(cfg.TCLns)) + burstCycles
	if done-base < minLat {
		t.Fatalf("read during refresh took %d, want >= %d", done-base, minLat)
	}
}

func TestRefreshClosesRows(t *testing.T) {
	eng, mc, cfg := setup(topology.ProtoBaseline)
	mc.EnableRefresh()
	mc.Read(0, func(bool) {})
	eng.Run()
	eng.RunUntil(eng.Now() + sim.Cycle(cfg.Cycles(tREFIns)) + sim.Cycle(cfg.Cycles(tRFCns)) + 10)
	mc.Read(64, func(bool) {}) // same row, but refresh closed it
	eng.Run()
	if mc.RowMisses < 2 {
		t.Fatalf("row survived refresh: misses=%d", mc.RowMisses)
	}
}

func TestRowHammerDetection(t *testing.T) {
	eng, mc, cfg := setup(topology.ProtoBaseline)
	mc.EnableRefresh()
	// Alternate two rows of the same bank so every access activates.
	rowStride := topology.Addr(uint64(cfg.RowBufferBytes) * uint64(cfg.BanksPerRank) *
		uint64(cfg.ChannelsPerSkt) * uint64(cfg.Sockets))
	for i := 0; i < 2*RowHammerThreshold+10; i++ {
		a := topology.Addr(0)
		if i%2 == 1 {
			a = rowStride
		}
		mc.Read(a, func(bool) {})
	}
	eng.Run()
	if mc.HammeredRows == 0 {
		t.Fatal("hammered row not flagged")
	}
	if !hammered(mc, 0) && !hammered(mc, rowStride) {
		t.Fatal("hammered row below the threshold")
	}
	if hammered(mc, topology.Addr(2*uint64(rowStride))) {
		t.Fatal("untouched row at the threshold")
	}
}

func TestHammerWindowResetsOnRefresh(t *testing.T) {
	eng, mc, cfg := setup(topology.ProtoBaseline)
	mc.EnableRefresh()
	rowStride := topology.Addr(uint64(cfg.RowBufferBytes) * uint64(cfg.BanksPerRank) *
		uint64(cfg.ChannelsPerSkt) * uint64(cfg.Sockets))
	for i := 0; i < 2*RowHammerThreshold+10; i++ {
		a := topology.Addr(0)
		if i%2 == 1 {
			a = rowStride
		}
		mc.Read(a, func(bool) {})
	}
	eng.Run()
	// After a full retention window (tREFW) the counters restart.
	eng.RunUntil(eng.Now() + sim.Cycle(cfg.Cycles(tREFIns))*ticksPerREFW + 10)
	if hammered(mc, 0) {
		t.Fatal("hammer window not cleared by refresh")
	}
}
