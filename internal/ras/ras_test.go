package ras

import (
	"bytes"
	"os"
	"reflect"
	"slices"
	"testing"

	"dve/internal/coherence"
	"dve/internal/dve"
	"dve/internal/fault"
	"dve/internal/results"
	"dve/internal/topology"
	"dve/internal/workload"
)

// containsOrdered reports whether the journal holds the given kinds for the
// line as an ordered subsequence (other events may interleave).
func containsOrdered(j *Journal, line uint64, kinds []string) bool {
	i := 0
	for _, ev := range j.Events {
		if ev.Line == line && ev.Kind == kinds[i] {
			i++
			if i == len(kinds) {
				return true
			}
		}
	}
	return false
}

// TestTransientRepairEndToEnd plants a transient chip fault (every line of
// socket 0 channel 0 fails its ECC check until a repair write lands) and
// checks the full escalation ladder end to end: the first failing read is
// detected, both local re-reads fail, the data is recovered from the
// replica, and the repair write clears the fault so the verify re-read
// passes — with the journal and the stats counters in exact agreement.
func TestTransientRepairEndToEnd(t *testing.T) {
	cfg := topology.Default(topology.ProtoDeny)
	spec, ok := workload.ByName("fft", cfg.TotalCores())
	if !ok {
		t.Fatal("workload fft not found")
	}
	spec.Seed = 1

	set := fault.NewSet(&cfg, fault.CodeTSD)
	eng := NewEngine(EngineConfig{
		Static: []fault.Fault{
			{Kind: fault.Chip, Socket: 0, Channel: 0, Chip: 3, Transient: true},
		},
		KillSocket: -1,
	}, set)

	res, err := dve.Run(spec, dve.RunConfig{
		Cfg:        cfg,
		MeasureOps: 6_000,
		Faults:     set,
		Prepare:    eng.Attach,
	})
	if err != nil {
		t.Fatal(err)
	}

	if len(res.InvariantViolations) != 0 {
		t.Fatalf("coherence invariants violated: %v", res.InvariantViolations)
	}
	c := &res.Counters
	if c.SilentCorruptions != 0 {
		t.Fatalf("silent corruptions: %d", c.SilentCorruptions)
	}
	if c.DetectedUncorrect != 0 {
		t.Fatalf("DUEs in a fully recoverable scenario: %d", c.DetectedUncorrect)
	}
	j := &eng.Journal
	if j.Count(coherence.EvDetect) == 0 {
		t.Fatal("transient chip fault was never detected")
	}

	// A verified home-side repair must show the whole ladder in order for
	// its line. (Replica-copy recoveries journal a shorter detect → recover
	// → repair sequence — the home divert is itself the retry — so anchor
	// on the first repair-ok, which only the home ladder emits.)
	ri := slices.IndexFunc(j.Events, func(ev Event) bool { return ev.Kind == coherence.EvRepairOK })
	if ri < 0 {
		t.Fatal("no verified repair journaled")
	}
	line := j.Events[ri].Line
	want := []string{
		coherence.EvDetect, coherence.EvRetry, coherence.EvRetry,
		coherence.EvRecover, coherence.EvRepair, coherence.EvRepairOK,
	}
	if !containsOrdered(j, line, want) {
		t.Fatalf("line %#x missing ordered ladder %v in journal", line, want)
	}

	// Journal and counters must agree event for event.
	checks := []struct {
		kind string
		cnt  uint64
	}{
		{coherence.EvRetry, c.RetriedReads},
		{coherence.EvRetryOK, c.RetrySuccesses},
		{coherence.EvRecover, c.Recoveries},
		{coherence.EvRepair, c.RepairWrites},
		{coherence.EvRepairFail, c.RepairVerifyFails},
		{coherence.EvRetire, c.PagesRetired},
		{coherence.EvDUE, c.DetectedUncorrect},
	}
	for _, ck := range checks {
		if got := j.Count(ck.kind); uint64(got) != ck.cnt {
			t.Errorf("journal %q count %d != counter %d", ck.kind, got, ck.cnt)
		}
	}

	// The repair write must actually have cleared the transient fault.
	if n := set.Active(); n != 0 {
		t.Errorf("transient fault still active after repair: %d faults", n)
	}
}

// TestCampaignDeterminism runs the same scenario × seed twice with the
// dynamic injector armed and demands byte-identical journals and identical
// counters: the whole run must be a pure function of (scenario, seed).
func TestCampaignDeterminism(t *testing.T) {
	sc := Scenario{
		Name: "determinism", Workload: "fft", Protocol: topology.ProtoDeny,
		Inject: &InjectorConfig{
			MeanArrivalCyc: 1_500, MaxFaults: 30,
			Kinds:            []fault.Kind{fault.Cell, fault.Row},
			TransientLifeCyc: 20_000, IntermittentLifeCyc: 30_000,
			DutyPct: 40, HardenPct: 50,
		},
		ScrubIntervalCyc: 2_000, ScrubBatch: 8,
		AllowDUE: true, // coincident two-copy failures are possible
	}
	run := func() RunReport {
		res, err := RunCampaign(CampaignConfig{
			Seeds: []int64{7}, MeasureOps: 8_000, Scenarios: []Scenario{sc},
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Failures != 0 {
			t.Fatalf("campaign failed: %v", res.Runs[0].Violations)
		}
		return res.Runs[0]
	}
	a, b := run(), run()

	ab, err := a.Journal.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	bb, err := b.Journal.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ab, bb) {
		t.Errorf("same seed produced different journals (%d vs %d events)",
			a.Journal.Len(), b.Journal.Len())
	}
	if !reflect.DeepEqual(a.Counters, b.Counters) {
		t.Errorf("same seed produced different counters:\n%+v\nvs\n%+v",
			a.Counters, b.Counters)
	}
	if a.Journal.Count(EvInject) == 0 {
		t.Error("dynamic injector never fired — determinism test exercised nothing")
	}
}

// TestCampaignSocketKillDegrades kills socket 1's memory controller mid-run
// and checks the graceful-degradation contract: the run finishes its ROI,
// affected lines demote to unreplicated mode, and no data is lost (the
// surviving copies are intact, so not even a DUE is permitted).
func TestCampaignSocketKillDegrades(t *testing.T) {
	sc := Scenario{
		Name: "kill", Workload: "fft", Protocol: topology.ProtoDeny,
		KillSocket: 1, KillAtCyc: 4_000,
	}
	res, err := RunCampaign(CampaignConfig{
		Seeds: []int64{1}, MeasureOps: 8_000, Scenarios: []Scenario{sc},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Runs[0]
	if !rep.OK() {
		t.Fatalf("socket-kill run failed assertions: %v", rep.Violations)
	}
	c := &rep.Counters
	if c.SocketKills == 0 {
		t.Fatal("kill never fired")
	}
	if c.DemotedLines == 0 {
		t.Fatal("no lines demoted to unreplicated mode")
	}
	if rep.Cycles == 0 {
		t.Fatal("ROI did not complete after the kill")
	}
	if got := rep.Journal.Count(coherence.EvSocketKill); got == 0 {
		t.Error("socket kill not journaled")
	}
	// Demotion is journaled once per kill (the per-line total lives in the
	// DemotedLines counter).
	if got := rep.Journal.Count(coherence.EvDemote); got == 0 {
		t.Error("demotion to unreplicated mode not journaled")
	}
}

// TestInjectorLifecycle forces every arrival to harden (HardenPct 100) and
// checks the injector walks the transient → intermittent → hard lifecycle,
// with its own counters matching the journal.
func TestInjectorLifecycle(t *testing.T) {
	cfg := topology.Default(topology.ProtoDeny)
	spec, _ := workload.ByName("fft", cfg.TotalCores())
	spec.Seed = 3

	set := fault.NewSet(&cfg, fault.CodeTSD)
	eng := NewEngine(EngineConfig{
		Inject: &InjectorConfig{
			Seed: 42, MeanArrivalCyc: 1_000, MaxFaults: 10,
			Kinds:            []fault.Kind{fault.Cell},
			TransientLifeCyc: 3_000, IntermittentLifeCyc: 4_000,
			DutyPct: 50, HardenPct: 100,
		},
		KillSocket: -1,
	}, set)

	if _, err := dve.Run(spec, dve.RunConfig{
		Cfg: cfg, MeasureOps: 8_000, Faults: set, Prepare: eng.Attach,
	}); err != nil {
		t.Fatal(err)
	}

	inj := eng.Inj
	j := &eng.Journal
	if inj.Injected == 0 {
		t.Fatal("injector never injected")
	}
	if inj.Escalated == 0 || inj.Hardened == 0 {
		t.Fatalf("HardenPct=100 run escalated %d / hardened %d faults",
			inj.Escalated, inj.Hardened)
	}
	for _, ck := range []struct {
		kind string
		n    int
	}{
		{EvInject, inj.Injected},
		{EvEscalate, inj.Escalated},
		{EvHarden, inj.Hardened},
		{EvExpire, inj.Expired},
	} {
		if got := j.Count(ck.kind); got != ck.n {
			t.Errorf("journal %q count %d != injector counter %d", ck.kind, got, ck.n)
		}
	}
}

// TestCampaignCacheRoundTrip runs the same small campaign twice against one
// cache: the second pass must be served entirely from disk and reproduce
// the first pass exactly, including rewriting the journal files on hits.
func TestCampaignCacheRoundTrip(t *testing.T) {
	store, err := results.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sc := Scenario{
		Name: "cached", Workload: "fft", Protocol: topology.ProtoDeny,
		Inject: &InjectorConfig{
			MeanArrivalCyc: 2_000, MaxFaults: 10,
			Kinds:            []fault.Kind{fault.Cell},
			TransientLifeCyc: 20_000, HardenPct: 0,
		},
		ScrubIntervalCyc: 2_000, ScrubBatch: 8,
	}
	run := func(outDir string) *CampaignResult {
		res, err := RunCampaign(CampaignConfig{
			Seeds: []int64{1, 2}, MeasureOps: 6_000,
			Scenarios: []Scenario{sc}, OutDir: outDir, Cache: store,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	outA, outB := t.TempDir(), t.TempDir()
	a := run(outA)
	if s := store.Stats(); s.Hits != 0 || s.Puts != 2 {
		t.Fatalf("cold campaign stats %v, want 2 puts and no hits", s)
	}
	b := run(outB)
	if s := store.Stats(); s.Hits != 2 {
		t.Fatalf("warm campaign stats %v, want 2 hits", s)
	}
	for i := range a.Runs {
		ra, rb := a.Runs[i], b.Runs[i]
		if !reflect.DeepEqual(ra.Counters, rb.Counters) || ra.Cycles != rb.Cycles {
			t.Fatalf("cached run %d differs from simulated run", i)
		}
		ja, err := os.ReadFile(ra.JournalPath)
		if err != nil {
			t.Fatal(err)
		}
		jb, err := os.ReadFile(rb.JournalPath)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ja, jb) {
			t.Fatalf("journal file of cached run %d differs", i)
		}
	}
}
