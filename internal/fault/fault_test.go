package fault

import (
	"testing"

	"dve/internal/topology"
)

func newSet(code LocalCode) (*Set, *topology.Config) {
	cfg := topology.Default(topology.ProtoDeny)
	return NewSet(&cfg, code), &cfg
}

func TestControllerFaultCoversWholeSocket(t *testing.T) {
	s, _ := newSet(CodeTSD)
	s.Inject(Fault{Kind: Controller, Socket: 0})
	if !s.ReadFails(0, 0) || !s.ReadFails(0, 1<<30) {
		t.Fatal("controller fault must cover every address of its socket")
	}
	if s.ReadFails(1, 0) {
		t.Fatal("controller fault leaked to the other socket")
	}
}

func TestChannelFaultScoped(t *testing.T) {
	s, cfg := newSet(CodeTSD)
	s.Inject(Fault{Kind: Channel, Socket: 0, Channel: 0})
	amap := topology.NewAddrMap(cfg)
	var hit0, hit1 bool
	for a := topology.Addr(0); a < topology.Addr(1<<16); a += 64 {
		co := amap.Decode(a)
		fails := s.ReadFails(0, a)
		if co.Channel == 0 {
			hit0 = hit0 || fails
			if !fails {
				t.Fatalf("address %#x on failed channel did not fail", a)
			}
		} else {
			hit1 = hit1 || fails
		}
	}
	if !hit0 || hit1 {
		t.Fatalf("channel scoping wrong: ch0 %v ch1 %v", hit0, hit1)
	}
}

func TestBankAndRowScoping(t *testing.T) {
	s, cfg := newSet(CodeDSD)
	amap := topology.NewAddrMap(cfg)
	target := topology.Addr(4096 * 33)
	co := amap.Decode(target)
	s.Inject(Fault{Kind: Row, Socket: 0, Channel: co.Channel, Bank: co.Bank, Row: co.Row})
	if !s.ReadFails(0, target) {
		t.Fatal("row fault missed its own row")
	}
	// A different row of the same bank is unaffected (global stride = local
	// row stride x sockets).
	other := target + topology.Addr(uint64(cfg.RowBufferBytes)*uint64(cfg.BanksPerRank)*
		uint64(cfg.ChannelsPerSkt)*uint64(cfg.Sockets))
	if co2 := amap.Decode(other); co2.Bank == co.Bank && co2.Row != co.Row {
		if s.ReadFails(0, other) {
			t.Fatal("row fault leaked to another row")
		}
	} else {
		t.Fatalf("test address construction wrong: %+v vs %+v", co, co2)
	}
}

func TestChipkillCorrectsSingleChip(t *testing.T) {
	s, _ := newSet(CodeChipkill)
	s.Inject(Fault{Kind: Chip, Socket: 0, Channel: 0, Chip: 3})
	if s.ReadFails(0, 0) {
		t.Fatal("Chipkill must correct a single failed chip (no failed read)")
	}
	// A second chip on the same channel exceeds SSC.
	s.Inject(Fault{Kind: Chip, Socket: 0, Channel: 0, Chip: 5})
	if !s.ReadFails(0, 0) {
		t.Fatal("two failed chips must defeat Chipkill")
	}
}

func TestDetectionOnlyCodesAlwaysFailOnFault(t *testing.T) {
	for _, code := range []LocalCode{CodeDSD, CodeTSD} {
		s, _ := newSet(code)
		s.Inject(Fault{Kind: Cell, Socket: 0, Addr: 128})
		if !s.ReadFails(0, 128) {
			t.Fatalf("code %v: detection-only must report uncorrectable", code)
		}
		if s.ReadFails(0, 256) {
			t.Fatalf("code %v: cell fault leaked to another line", code)
		}
	}
}

func TestSECDEDCorrectsSingleCellOnly(t *testing.T) {
	s, _ := newSet(CodeSECDED)
	s.Inject(Fault{Kind: Cell, Socket: 0, Addr: 64})
	if s.ReadFails(0, 64) {
		t.Fatal("SEC-DED corrects a single-bit cell fault")
	}
	s.Inject(Fault{Kind: Cell, Socket: 0, Addr: 64})
	if !s.ReadFails(0, 64) {
		t.Fatal("two cell faults on a line must fail SEC-DED")
	}
}

func TestCodeNoneSilent(t *testing.T) {
	s, _ := newSet(CodeNone)
	s.Inject(Fault{Kind: Controller, Socket: 0})
	if s.ReadFails(0, 0) {
		t.Fatal("CodeNone can never detect (SDC, not DUE)")
	}
}

func TestRepairRemovesTransientOnly(t *testing.T) {
	s, _ := newSet(CodeTSD)
	s.Inject(Fault{Kind: Cell, Socket: 0, Addr: 64, Transient: true})
	s.Inject(Fault{Kind: Cell, Socket: 0, Addr: 640})
	s.Repair(0, 64)
	if s.ReadFails(0, 64) {
		t.Fatal("transient fault survived repair")
	}
	s.Repair(0, 640)
	if !s.ReadFails(0, 640) {
		t.Fatal("hard fault removed by repair")
	}
	if s.Active() != 1 {
		t.Fatalf("active faults = %d, want 1", s.Active())
	}
}

func TestPredicateMatchesReadFails(t *testing.T) {
	s, _ := newSet(CodeTSD)
	s.Inject(Fault{Kind: Controller, Socket: 1})
	p := s.Predicate()
	if p(0, 0) != s.ReadFails(0, 0) || p(1, 0) != s.ReadFails(1, 0) {
		t.Fatal("Predicate disagrees with ReadFails")
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		Cell: "cell", Row: "row", Column: "column", Bank: "bank",
		Chip: "chip", DIMM: "dimm", Channel: "channel", Controller: "controller",
		Kind(99): "?",
	} {
		if k.String() != want {
			t.Errorf("Kind(%d) = %q, want %q", k, k.String(), want)
		}
	}
}

func TestMonteCarloDetectionGuarantees(t *testing.T) {
	// 1- and 2-symbol errors: never missed by the r=2 code.
	for _, k := range []int{1, 2} {
		res := MeasureRS256Detection(18, 16, k, 400, 11)
		if res.Missed != 0 {
			t.Errorf("DSD missed %d/%d %d-symbol errors", res.Missed, res.Trials, k)
		}
	}
	// 3-symbol errors may occasionally alias (the analytical model's
	// detection-miss term); the miss rate must be small.
	res := MeasureRS256Detection(18, 16, 3, 2000, 12)
	if res.MissRate() > 0.05 {
		t.Errorf("DSD 3-symbol miss rate = %v, want < 5%%", res.MissRate())
	}
	// TSD: 1..3 symbols never missed.
	for _, k := range []int{1, 2, 3} {
		res := MeasureRS16Detection(35, 32, k, 200, 13)
		if res.Missed != 0 {
			t.Errorf("TSD missed %d %d-symbol errors", res.Missed, k)
		}
	}
}

func TestAddRemoveUpdateLifecycle(t *testing.T) {
	s, _ := newSet(CodeTSD)
	id := s.Add(Fault{Kind: Cell, Socket: 0, Addr: 64, Transient: true})
	if !s.ReadFails(0, 64) {
		t.Fatal("added fault not observed")
	}
	// Escalate to intermittent, then to hard.
	if !s.Update(id, Fault{Kind: Cell, Socket: 0, Addr: 64, DutyPct: 50}) {
		t.Fatal("Update lost the fault")
	}
	if f, ok := s.Get(id); !ok || f.DutyPct != 50 {
		t.Fatalf("Get after Update = %+v, %v", f, ok)
	}
	// A repair write must NOT clear the (non-transient) intermittent fault.
	s.Repair(0, 64)
	if s.Active() != 1 {
		t.Fatal("repair removed an intermittent fault")
	}
	if !s.Remove(id) {
		t.Fatal("Remove lost the fault")
	}
	if s.Remove(id) {
		t.Fatal("double Remove succeeded")
	}
	if s.Active() != 0 || s.ReadFails(0, 64) {
		t.Fatal("fault survived Remove")
	}
}

func TestIntermittentDutyCycleDeterministic(t *testing.T) {
	observe := func() (fails int, pattern []bool) {
		s, _ := newSet(CodeTSD)
		s.Add(Fault{Kind: Cell, Socket: 0, Addr: 64, DutyPct: 30})
		for i := 0; i < 1000; i++ {
			f := s.ReadFails(0, 64)
			pattern = append(pattern, f)
			if f {
				fails++
			}
		}
		return
	}
	fails, p1 := observe()
	// ~30% of reads observe the fault; allow wide tolerance, but it must
	// neither always fire nor never fire.
	if fails < 150 || fails > 450 {
		t.Fatalf("duty 30%%: %d/1000 reads failed", fails)
	}
	// The flap pattern is a pure function of (fault ID, read sequence):
	// a fresh identical set reproduces it bit for bit.
	_, p2 := observe()
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("intermittent pattern diverged at read %d", i)
		}
	}
}

func TestCodeNoneCountsSilentCorruptions(t *testing.T) {
	s, _ := newSet(CodeNone)
	s.Inject(Fault{Kind: Controller, Socket: 0})
	for i := 0; i < 5; i++ {
		if s.ReadFails(0, topology.Addr(i*64)) {
			t.Fatal("CodeNone detected a fault")
		}
	}
	s.ReadFails(1, 0) // other socket: clean
	if got := s.SilentCorruptions(); got != 5 {
		t.Fatalf("SilentCorruptions = %d, want 5", got)
	}
}

func TestReadFailsDoesNotAllocate(t *testing.T) {
	s, _ := newSet(CodeTSD)
	for i := 0; i < 64; i++ {
		s.Add(Fault{Kind: Cell, Socket: 0, Addr: topology.Addr(i * 64)})
	}
	s.Add(Fault{Kind: Chip, Socket: 0, Channel: 0, Chip: 2})
	avg := testing.AllocsPerRun(200, func() {
		s.ReadFails(0, 64)
		s.ReadFails(0, 1<<20)
	})
	if avg != 0 {
		t.Fatalf("ReadFails allocates %.1f objects per call pair, want 0", avg)
	}
}

func TestConcurrentInjectionAndReads(t *testing.T) {
	// Exercised under -race: a scrubber goroutine repairing while an
	// injector adds/escalates/removes must not race.
	s, _ := newSet(CodeTSD)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 2000; i++ {
			id := s.Add(Fault{Kind: Cell, Socket: 0,
				Addr: topology.Addr(i % 32 * 64), Transient: i%2 == 0})
			if i%3 == 0 {
				s.Update(id, Fault{Kind: Cell, Socket: 0,
					Addr: topology.Addr(i % 32 * 64), DutyPct: 40})
			}
			if i%2 == 1 {
				s.Remove(id)
			}
		}
	}()
	for i := 0; i < 2000; i++ {
		s.ReadFails(0, topology.Addr(i%64*64))
		if i%7 == 0 {
			s.Repair(0, topology.Addr(i%32*64))
		}
	}
	<-done
	s.Active()
}
