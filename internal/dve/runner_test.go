package dve

import (
	"reflect"
	"testing"

	"dve/internal/topology"
	"dve/internal/workload"
)

func smallSpec(name string) workload.Spec {
	s, ok := workload.ByName(name, 16)
	if !ok {
		panic("unknown workload " + name)
	}
	return s
}

func runSmall(t *testing.T, name string, p topology.Protocol) *Result {
	t.Helper()
	rc := RunConfig{
		Cfg:        topology.Default(p),
		WarmupOps:  20_000,
		MeasureOps: 60_000,
		Classify:   p == topology.ProtoBaseline,
	}
	res, err := Run(smallSpec(name), rc)
	if err != nil {
		t.Fatalf("Run(%s,%v): %v", name, p, err)
	}
	if res.Cycles == 0 {
		t.Fatalf("Run(%s,%v): zero ROI cycles", name, p)
	}
	return res
}

func TestRunCompletesAllProtocols(t *testing.T) {
	for _, p := range []topology.Protocol{
		topology.ProtoBaseline, topology.ProtoAllow, topology.ProtoDeny,
		topology.ProtoDynamic, topology.ProtoIntelMirror,
	} {
		res := runSmall(t, "fft", p)
		if res.Counters.Ops == 0 {
			t.Errorf("%v: no ops recorded", p)
		}
		t.Logf("%v: cycles=%d linkBytes=%d replicaReads=%d",
			p, res.Cycles, res.Counters.LinkBytes, res.Counters.ReplicaReads)
	}
}

func TestReplicaProtocolsServeLocalReads(t *testing.T) {
	for _, p := range []topology.Protocol{topology.ProtoAllow, topology.ProtoDeny} {
		res := runSmall(t, "xsbench", p)
		if res.Counters.ReplicaReads == 0 {
			t.Errorf("%v: no reads served by the replica", p)
		}
	}
}

func TestDveReducesInterSocketTraffic(t *testing.T) {
	base := runSmall(t, "graph500", topology.ProtoBaseline)
	for _, p := range []topology.Protocol{topology.ProtoAllow, topology.ProtoDeny} {
		res := runSmall(t, "graph500", p)
		if res.Counters.LinkBytes >= base.Counters.LinkBytes {
			t.Errorf("%v link bytes %d >= baseline %d", p, res.Counters.LinkBytes, base.Counters.LinkBytes)
		}
	}
}

func TestDenyBeatsAllowOnReadMostly(t *testing.T) {
	allow := runSmall(t, "xsbench", topology.ProtoAllow)
	deny := runSmall(t, "xsbench", topology.ProtoDeny)
	if deny.Cycles >= allow.Cycles {
		t.Errorf("deny (%d cycles) not faster than allow (%d) on read-mostly xsbench",
			deny.Cycles, allow.Cycles)
	}
}

func TestAllowBeatsDenyOnPrivateWriteHeavy(t *testing.T) {
	// canneal has the heaviest private-read/write mix; small-scale runs need
	// enough ops for the write-path deny penalty to dominate.
	run := func(p topology.Protocol) *Result {
		rc := RunConfig{Cfg: topology.Default(p), WarmupOps: 60_000, MeasureOps: 180_000}
		res, err := Run(smallSpec("canneal"), rc)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	allow := run(topology.ProtoAllow)
	deny := run(topology.ProtoDeny)
	if allow.Cycles >= deny.Cycles {
		t.Errorf("allow (%d cycles) not faster than deny (%d) on private-write-heavy canneal",
			allow.Cycles, deny.Cycles)
	}
}

func TestBaselineClassification(t *testing.T) {
	res := runSmall(t, "canneal", topology.ProtoBaseline)
	mix := res.Counters.SharingMix()
	sum := mix[0] + mix[1] + mix[2] + mix[3]
	if sum < 0.99 {
		t.Fatalf("classification fractions sum to %f", sum)
	}
	// canneal is private-read/write heavy (paper Fig 7: allow winner).
	if mix[3] < 0.3 {
		t.Errorf("canneal private-RW fraction = %f, expected heavy (>0.3)", mix[3])
	}
}

func TestDeterministicRuns(t *testing.T) {
	a := runSmall(t, "bfs", topology.ProtoDeny)
	b := runSmall(t, "bfs", topology.ProtoDeny)
	if a.Cycles != b.Cycles || a.Counters.LinkBytes != b.Counters.LinkBytes {
		t.Fatalf("nondeterministic run: %d/%d vs %d/%d cycles/bytes",
			a.Cycles, a.Counters.LinkBytes, b.Cycles, b.Counters.LinkBytes)
	}
}

func TestDynamicTracksBetterProtocol(t *testing.T) {
	res := runSmall(t, "xsbench", topology.ProtoDynamic)
	if res.Counters.EpochsDeny == 0 {
		t.Errorf("dynamic never chose deny on read-mostly xsbench (allow=%d deny=%d)",
			res.Counters.EpochsAllow, res.Counters.EpochsDeny)
	}
}

func TestRunRejectsZeroOps(t *testing.T) {
	_, err := Run(smallSpec("fft"), RunConfig{Cfg: topology.Default(topology.ProtoBaseline)})
	if err == nil {
		t.Fatal("expected error for zero MeasureOps")
	}
}

func TestFaultInjectionRecovers(t *testing.T) {
	rc := RunConfig{
		Cfg:        topology.Default(topology.ProtoDeny),
		MeasureOps: 30_000,
		// Every read of socket 0 in a slice of the address space fails its
		// local ECC check.
		FaultFn: func(socket int, a topology.Addr) bool {
			return socket == 0 && uint64(a)%997 == 0
		},
	}
	res, err := Run(smallSpec("graph500"), rc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.Recoveries == 0 {
		t.Fatal("no replica recoveries despite injected faults")
	}
	if res.Counters.DetectedUncorrect != 0 {
		t.Fatalf("%d DUEs with single-sided faults; replica should recover all",
			res.Counters.DetectedUncorrect)
	}
}

func TestModeString(t *testing.T) {
	if Allow.String() != "allow" || Deny.String() != "deny" {
		t.Fatal("Mode.String wrong")
	}
}

func TestScrubbingRunFindsLatentFaults(t *testing.T) {
	rc := RunConfig{
		Cfg:              topology.Default(topology.ProtoDeny),
		MeasureOps:       60_000,
		ScrubIntervalCyc: 4_000,
		ScrubBatch:       32,
		// A sparse fault pattern demand accesses are unlikely to re-touch.
		FaultFn: func(socket int, a topology.Addr) bool {
			return socket == 0 && (uint64(a)/64)%257 == 0
		},
	}
	res, err := Run(smallSpec("lu"), rc)
	if err != nil {
		t.Fatal(err)
	}
	noScrub := rc
	noScrub.ScrubIntervalCyc = 0
	res2, err := Run(smallSpec("lu"), noScrub)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.Recoveries <= res2.Counters.Recoveries {
		t.Fatalf("scrubbing found %d recoveries vs %d without — patrol ineffective",
			res.Counters.Recoveries, res2.Counters.Recoveries)
	}
}

// Invariant audit over full-size Dvé runs: after the event queue drains, the
// LLC/directory state must satisfy SWMR, directory agreement, and inclusion
// (the simulator-scale complement of the model checker).
func TestInvariantsAfterRuns(t *testing.T) {
	for _, p := range []topology.Protocol{
		topology.ProtoAllow, topology.ProtoDeny, topology.ProtoDynamic,
	} {
		spec := smallSpec("canneal") // heavy shared read-write traffic
		spec.FootprintMB = 8         // small footprint maximizes conflicts
		res, err := Run(spec, RunConfig{
			Cfg:        topology.Default(p),
			MeasureOps: 80_000,
		})
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		for _, viol := range res.InvariantViolations {
			t.Errorf("%v: %s", p, viol)
		}
	}
}

// TestFootprintHintIsCapacityOnly runs fft/deny at Quick scale with the
// smallest footprint hint, so every hint-sized table starts tiny and grows
// through the run, and demands the same Result as the default hint.
func TestFootprintHintIsCapacityOnly(t *testing.T) {
	spec, ok := workload.ByName("fft", 16)
	if !ok {
		t.Fatal("unknown workload fft")
	}
	run := func(hint int) *Result {
		cfg := topology.Default(topology.ProtoDeny)
		cfg.FootprintHintLines = hint
		res, err := Run(spec, RunConfig{Cfg: cfg, WarmupOps: 50_000, MeasureOps: 120_000})
		if err != nil {
			t.Fatalf("hint %d: %v", hint, err)
		}
		return res
	}
	def, tiny := run(0), run(1)
	if !reflect.DeepEqual(def, tiny) {
		t.Errorf("hint 1 changed the result:\ndefault: %s\nhint 1:  %s", fingerprint(t, def), fingerprint(t, tiny))
	}
}
