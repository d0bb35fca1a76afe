package workload

import (
	"testing"

	"dve/internal/topology"
)

func hammerSpec(t *testing.T, intensity float64, double bool) HammerSpec {
	t.Helper()
	victim, ok := ByName("fft", 4)
	if !ok {
		t.Fatal("fft not found")
	}
	return HammerSpec{Victim: victim, Intensity: intensity, DoubleSided: double, Seed: 99}
}

func TestHammerLadderGeometry(t *testing.T) {
	for _, proto := range []topology.Protocol{topology.ProtoBaseline, topology.ProtoDeny} {
		cfg := topology.Default(proto)
		h, err := NewHammerSource(hammerSpec(t, 0.5, false), &cfg)
		if err != nil {
			t.Fatalf("%v: %v", proto, err)
		}
		groups := h.groups
		if len(groups) == 0 || len(groups) > cfg.CoresPerSocket {
			t.Fatalf("%v: %d groups, want 1..%d", proto, len(groups), cfg.CoresPerSocket)
		}
		if want := len(groups) * (cfg.LLCWays + 1); len(h.ladder) != want {
			t.Fatalf("%v: ladder has %d rungs, want %d", proto, len(h.ladder), want)
		}
		amap := topology.NewAddrMap(&cfg)
		llcSets := uint64(cfg.LLCSizeBytes / cfg.LLCWays / cfg.LineSizeBytes)
		first := amap.Decode(h.ladder[0])
		rows := map[uint64]bool{}
		seenSets := map[uint64]bool{}
		for g, grp := range groups {
			// Each group is one eviction set: LLCWays+1 lines, all in one LLC
			// set, and every group in a different set.
			if want := cfg.LLCWays + 1; len(grp) != want {
				t.Fatalf("%v: group %d has %d rungs, want %d", proto, g, len(grp), want)
			}
			grpSet := uint64(grp[0]) / uint64(cfg.LineSizeBytes) % llcSets
			if seenSets[grpSet] {
				t.Fatalf("%v: group %d reuses LLC set %d", proto, g, grpSet)
			}
			seenSets[grpSet] = true
			for _, a := range grp {
				co := amap.Decode(a)
				if co.Channel != first.Channel || co.Bank != first.Bank {
					t.Fatalf("%v: rung (ch %d bank %d), want (ch %d bank %d)",
						proto, co.Channel, co.Bank, first.Channel, first.Bank)
				}
				if rows[co.Row] {
					t.Fatalf("%v: duplicate row %d in ladder", proto, co.Row)
				}
				rows[co.Row] = true
				if s := uint64(a) / uint64(cfg.LineSizeBytes) % llcSets; s != grpSet {
					t.Fatalf("%v: group %d rung in LLC set %d, want %d (eviction set broken)", proto, g, s, grpSet)
				}
			}
		}
	}
}

func TestHammerDoubleSidedPairsRows(t *testing.T) {
	cfg := topology.Default(topology.ProtoDeny)
	h, err := NewHammerSource(hammerSpec(t, 0.5, true), &cfg)
	if err != nil {
		t.Fatal(err)
	}
	groups := h.groups
	if len(groups) < 2 {
		t.Fatalf("double-sided hammer built %d groups, want at least one per side", len(groups))
	}
	amap := topology.NewAddrMap(&cfg)
	hot := h.hotRow
	// Even groups hammer from above the hot row, odd groups from below: the
	// victim row is bracketed (groups 0 and 1 are its immediate neighbours).
	for g, grp := range groups {
		base := amap.Decode(grp[0])
		if g%2 == 0 {
			if base.Row <= hot.Row {
				t.Fatalf("even group %d base row %d not above hot row %d", g, base.Row, hot.Row)
			}
		} else if base.Row >= hot.Row {
			t.Fatalf("odd group %d base row %d not below hot row %d", g, base.Row, hot.Row)
		}
	}
	lo := amap.Decode(groups[1][0])
	hi := amap.Decode(groups[0][0])
	if lo.Row != hot.Row-1 || hi.Row != hot.Row+1 {
		t.Fatalf("bracket rows %d,%d do not sandwich hot row %d", lo.Row, hi.Row, hot.Row)
	}
}

func TestHammerZeroIntensityMatchesVictim(t *testing.T) {
	cfg := topology.Default(topology.ProtoDeny)
	hs := hammerSpec(t, 0, false)
	h, err := NewHammerSource(hs, &cfg)
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGenerator(hs.Victim)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5000; i++ {
		for tid := 0; tid < hs.Victim.Threads; tid++ {
			a, b := h.Next(tid), g.Next(tid)
			if a != b {
				t.Fatalf("intensity-0 stream diverges from victim at op %d tid %d: %+v vs %+v", i, tid, a, b)
			}
		}
	}
}

func TestHammerDeterminism(t *testing.T) {
	cfg := topology.Default(topology.ProtoDeny)
	hs := hammerSpec(t, 0.4, true)
	h1, _ := NewHammerSource(hs, &cfg)
	h2, _ := NewHammerSource(hs, &cfg)
	if h1 == nil || h2 == nil {
		t.Fatal("source construction failed")
	}
	for i := 0; i < 5000; i++ {
		for tid := 0; tid < hs.Victim.Threads; tid++ {
			if a, b := h1.Next(tid), h2.Next(tid); a != b {
				t.Fatalf("streams diverge at op %d tid %d", i, tid)
			}
		}
	}
}

func TestHammerIntensityMix(t *testing.T) {
	cfg := topology.Default(topology.ProtoDeny)
	h, err := NewHammerSource(hammerSpec(t, 0.4, false), &cfg)
	if err != nil {
		t.Fatal(err)
	}
	onLadder := map[topology.Addr]bool{}
	for _, a := range h.ladder {
		onLadder[a] = true
	}
	const n = 50_000
	agg := 0
	for i := 0; i < n; i++ {
		if op := h.Next(0); onLadder[op.Addr] && op.Kind == Read && op.Compute == 0 {
			agg++
		}
	}
	if f := float64(agg) / n; f < 0.37 || f > 0.43 {
		t.Fatalf("aggressor fraction %.3f, want ~0.40", f)
	}
}

func TestHammerRejectsBadSpecs(t *testing.T) {
	cfg := topology.Default(topology.ProtoDeny)
	for _, bad := range []float64{1.0, 1.5, -0.1} {
		hs := hammerSpec(t, bad, false)
		if _, err := NewHammerSource(hs, &cfg); err == nil {
			t.Errorf("intensity %v accepted", bad)
		}
	}
}

// TestHammerTargetsHotVictimRow pins the placement contract: the first
// rung(s) bracket the victim's hottest shared row, so the hammered victim
// row provably holds data the workload touches early and re-reads.
func TestHammerTargetsHotVictimRow(t *testing.T) {
	cfg := topology.Default(topology.ProtoDeny)
	amap := topology.NewAddrMap(&cfg)

	single, err := NewHammerSource(hammerSpec(t, 0.5, false), &cfg)
	if err != nil {
		t.Fatal(err)
	}
	socket, hot := single.hotSocket, single.hotRow
	if hot.Row < 2 {
		t.Fatalf("hot victim row %d leaves no room for the lower aggressor", hot.Row)
	}
	rung0 := amap.Decode(single.ladder[0])
	if rung0.Row != hot.Row+1 || rung0.Bank != hot.Bank || rung0.Channel != hot.Channel {
		t.Fatalf("single-sided rung0 %+v does not neighbour hot row %+v", rung0, hot)
	}
	if got := amap.HomeSocket(single.ladder[0]); got != socket {
		t.Fatalf("ladder homed on socket %d, hot row on socket %d", got, socket)
	}

	// The hot row must actually be touched by the victim's own stream
	// prefix (that is what makes the flips observable).
	g, err := NewGenerator(single.victim.spec)
	if err != nil {
		t.Fatal(err)
	}
	touched := false
	for i := 0; i < 256 && !touched; i++ {
		for tid := 0; tid < single.victim.spec.Threads; tid++ {
			op := g.Next(tid)
			if op.Kind == Barrier {
				continue
			}
			if amap.HomeSocket(op.Addr) == socket && amap.Decode(op.Addr) == hot {
				touched = true
				break
			}
		}
	}
	if !touched {
		t.Fatal("victim stream prefix never touches the chosen hot row")
	}

	double, err := NewHammerSource(hammerSpec(t, 0.5, true), &cfg)
	if err != nil {
		t.Fatal(err)
	}
	dhot := double.hotRow
	hi := amap.Decode(double.groups[0][0])
	lo := amap.Decode(double.groups[1][0])
	if lo.Row != dhot.Row-1 || hi.Row != dhot.Row+1 {
		t.Fatalf("double-sided base rows %d,%d do not bracket hot row %d", lo.Row, hi.Row, dhot.Row)
	}
}
