package ras

import (
	"bytes"
	"reflect"
	"testing"

	"dve/internal/dve"
	"dve/internal/topology"
	"dve/internal/workload"
)

func hammerScenario(name string, proto topology.Protocol, intensity float64, scrub uint64) Scenario {
	return Scenario{
		Name:             name,
		Workload:         "fft",
		Protocol:         proto,
		AllowDUE:         intensity > 0,
		ScrubIntervalCyc: scrub,
		ScrubBatch:       16,
		Hammer:           &HammerScenario{Intensity: intensity},
	}
}

func runHammerCell(t *testing.T, sc Scenario) RunReport {
	t.Helper()
	res, err := RunCampaign(CampaignConfig{
		Seeds:      []int64{7},
		MeasureOps: 50_000,
		Scenarios:  []Scenario{sc},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Runs) != 1 {
		t.Fatalf("got %d runs, want 1", len(res.Runs))
	}
	return res.Runs[0]
}

// TestHammerCampaignAttacksAndDefends is the end-to-end loop closure: an
// aggressor campaign against the unreplicated baseline serves corrupted
// reads, while the same attack against the deny protocol with patrol
// scrubbing is detected and repaired, serving strictly fewer corrupted
// reads.
func TestHammerCampaignAttacksAndDefends(t *testing.T) {
	unrep := runHammerCell(t, hammerScenario("hammer-unrep", topology.ProtoBaseline, 0.4, 2_000))
	deny := runHammerCell(t, hammerScenario("hammer-deny", topology.ProtoDeny, 0.4, 2_000))

	for _, rep := range []RunReport{unrep, deny} {
		c := rep.Counters
		t.Logf("%s: crossings=%d flips=%d detected=%d latency=%d corrupt=%d repairs=%d DUE=%d SDC=%d violations=%v",
			rep.Scenario, c.HammerCrossings, c.HammerFlips, c.HammerDetected,
			c.HammerDetectLatency, c.HammerCorruptReads, c.HammerRepairs,
			c.DetectedUncorrect, c.SilentCorruptions, rep.Violations)
		if !rep.OK() {
			t.Errorf("%s: violations: %v", rep.Scenario, rep.Violations)
		}
		if c.HammerCrossings == 0 {
			t.Errorf("%s: attack never crossed the activation threshold", rep.Scenario)
		}
		if c.HammerFlips == 0 {
			t.Errorf("%s: crossings injected no bitflips", rep.Scenario)
		}
		if c.HammerDetected == 0 {
			t.Errorf("%s: no flip was ever detected", rep.Scenario)
		}
		if c.HammerDetected > 0 && c.HammerDetectLatency == 0 {
			t.Errorf("%s: detections recorded but zero aggregate latency", rep.Scenario)
		}
		if n := rep.Journal.Count(EvHammerFlip); uint64(n) != c.HammerFlips {
			t.Errorf("%s: journal has %d %s events, counters say %d",
				rep.Scenario, n, EvHammerFlip, c.HammerFlips)
		}
	}

	// The unreplicated machine has no second copy: detection turns straight
	// into corrupted reads served (DUEs). Replication + scrubbing must
	// repair flips and serve strictly fewer corrupted reads.
	if unrep.Counters.HammerCorruptReads == 0 {
		t.Error("unreplicated run served no corrupted reads — the attack did no measurable harm")
	}
	if deny.Counters.HammerRepairs == 0 {
		t.Error("deny run repaired no hammered lines")
	}
	if deny.Counters.HammerCorruptReads >= unrep.Counters.HammerCorruptReads {
		t.Errorf("replication did not reduce corrupted reads: deny %d >= unreplicated %d",
			deny.Counters.HammerCorruptReads, unrep.Counters.HammerCorruptReads)
	}
}

// TestHammerCampaignDeterminism pins the determinism contract the CI smoke
// leg diffs for: the same hammer cell run twice yields byte-identical
// journals and identical counters.
func TestHammerCampaignDeterminism(t *testing.T) {
	sc := hammerScenario("hammer-det", topology.ProtoDeny, 0.4, 2_000)
	first := runHammerCell(t, sc)
	second := runHammerCell(t, sc)
	b1, err := first.Journal.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	b2, err := second.Journal.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Error("hammer journals differ across identical runs")
	}
	if !reflect.DeepEqual(first.Counters, second.Counters) {
		t.Errorf("hammer counters differ across identical runs:\nfirst:  %+v\nsecond: %+v",
			first.Counters, second.Counters)
	}
}

// TestHammerZeroIntensityByteIdentical pins the disarm contract: a scenario
// carrying Hammer with Intensity 0 produces a journal and counters
// byte-identical to the same scenario with no Hammer block at all. This is
// what keeps pre-PR campaign results stable.
func TestHammerZeroIntensityByteIdentical(t *testing.T) {
	armed := hammerScenario("hammer-zero", topology.ProtoDeny, 0, 2_000)
	plain := armed
	plain.Hammer = nil
	plain.AllowDUE = armed.AllowDUE

	zrep := runHammerCell(t, armed)
	prep := runHammerCell(t, plain)

	zb, err := zrep.Journal.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	pb, err := prep.Journal.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(zb, pb) {
		t.Error("zero-intensity journal differs from the unattacked run")
	}
	if !reflect.DeepEqual(zrep.Counters, prep.Counters) {
		t.Errorf("zero-intensity counters differ from the unattacked run:\nzero:  %+v\nplain: %+v",
			zrep.Counters, prep.Counters)
	}
	if zrep.Cycles != prep.Cycles {
		t.Errorf("zero-intensity cycles %d != unattacked cycles %d", zrep.Cycles, prep.Cycles)
	}
}

// TestHammerRunsPartitioned pins the engine contract for hammer runs: an
// external operation source (the aggressor interleaver) runs on the
// partitioned engine like every other run, forced onto one worker because
// the source is not required to be concurrency-safe.
func TestHammerRunsPartitioned(t *testing.T) {
	cfg := topology.Default(topology.ProtoDeny)
	spec, ok := workload.ByName("fft", cfg.TotalCores())
	if !ok {
		t.Fatal("fft workload missing")
	}
	src, err := workload.NewHammerSource(workload.HammerSpec{
		Victim: spec, Intensity: 0.3, Seed: 1,
	}, &cfg)
	if err != nil {
		t.Fatal(err)
	}
	rc := dve.RunConfig{
		Cfg:        cfg,
		MeasureOps: 5_000,
		Engine:     dve.EngineParallel,
		Source:     src,
	}
	res, err := dve.Run(spec, rc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Workers != 1 {
		t.Fatalf("hammer run used %d workers, want 1", res.Workers)
	}
	if res.Counters.EngineEpochs == 0 {
		t.Fatal("hammer run recorded no partitioned-engine epochs")
	}
}
