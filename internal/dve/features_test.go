package dve_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"dve/internal/dve"
	"dve/internal/fault"
	"dve/internal/ras"
	"dve/internal/telemetry"
	"dve/internal/topology"
	"dve/internal/workload"
)

// pageMapper replicates every other page pair under the fixed-function
// pairing: a flexible (RMT-style) map that leaves half the memory single-copy.
type pageMapper struct{ amap *topology.AddrMap }

func (m pageMapper) ReplicaAddr(a topology.Addr) (topology.Addr, bool) {
	if m.amap.PageOf(a)%4 >= 2 {
		return 0, false
	}
	return m.amap.ReplicaAddr(a), true
}

// TestSingleWorkerFeatures pins the contract for features that share
// mutable state across sockets: requested as EngineParallel, each still runs
// on the partitioned engine but on one worker, and two runs are
// byte-identical. Each case builds fresh feature state per run (tracers,
// fault sets and op sources are single-use).
func TestSingleWorkerFeatures(t *testing.T) {
	cases := []struct {
		name string
		mut  func(t *testing.T, rc *dve.RunConfig, spec workload.Spec)
	}{
		{"dynamic-protocol", func(t *testing.T, rc *dve.RunConfig, _ workload.Spec) {
			rc.Cfg = topology.Default(topology.ProtoDynamic)
		}},
		{"oracular", func(t *testing.T, rc *dve.RunConfig, _ workload.Spec) { rc.Cfg.Oracular = true }},
		{"scrubbing", func(t *testing.T, rc *dve.RunConfig, _ workload.Spec) { rc.ScrubIntervalCyc = 20_000 }},
		{"fault-injection", func(t *testing.T, rc *dve.RunConfig, _ workload.Spec) {
			rc.FaultFn = func(socket int, a topology.Addr) bool { return uint64(a)>>6%997 == 0 }
		}},
		{"fault-set", func(t *testing.T, rc *dve.RunConfig, _ workload.Spec) {
			rc.Faults = fault.NewSet(&rc.Cfg, fault.CodeSECDED)
		}},
		{"ras-socket-kill", func(t *testing.T, rc *dve.RunConfig, _ workload.Spec) {
			set := fault.NewSet(&rc.Cfg, fault.CodeSECDED)
			rc.Faults = set
			rc.Prepare = ras.NewEngine(ras.EngineConfig{KillSocket: 1, KillAtCyc: 5_000}, set).Attach
		}},
		{"hammer-source", func(t *testing.T, rc *dve.RunConfig, spec workload.Spec) {
			src, err := workload.NewHammerSource(workload.HammerSpec{
				Victim: spec, Intensity: 0.3, Seed: 1,
			}, &rc.Cfg)
			if err != nil {
				t.Fatal(err)
			}
			rc.Source = src
		}},
		{"replica-map", func(t *testing.T, rc *dve.RunConfig, _ workload.Spec) {
			rc.ReplicaMap = pageMapper{topology.NewAddrMap(&rc.Cfg)}
		}},
		{"telemetry", func(t *testing.T, rc *dve.RunConfig, _ workload.Spec) {
			rc.Telemetry = telemetry.NewTracer(telemetry.Options{TraceEvents: true, FlightRecorderLines: 64})
		}},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			var prints [2][]byte
			for i := range prints {
				cfg := topology.Default(topology.ProtoDeny)
				spec, ok := workload.ByName("fft", cfg.TotalCores())
				if !ok {
					t.Fatal("fft workload missing")
				}
				rc := dve.RunConfig{
					Cfg:        cfg,
					WarmupOps:  2_000,
					MeasureOps: 8_000,
					Engine:     dve.EngineParallel,
				}
				c.mut(t, &rc, spec)
				res, err := dve.Run(spec, rc)
				if err != nil {
					t.Fatal(err)
				}
				if res.Workers != 1 {
					t.Fatalf("ran with %d workers, want 1", res.Workers)
				}
				if res.Counters.EngineEpochs == 0 {
					t.Fatal("no partitioned-engine epochs recorded")
				}
				if len(res.InvariantViolations) > 0 {
					t.Fatalf("invariant violations: %v", res.InvariantViolations)
				}
				prints[i], err = json.Marshal(struct {
					Cycles   uint64
					Counters any
				}{res.Cycles, res.Counters})
				if err != nil {
					t.Fatal(err)
				}
			}
			if !bytes.Equal(prints[0], prints[1]) {
				t.Errorf("runs diverged:\nfirst:  %s\nsecond: %s", prints[0], prints[1])
			}
		})
	}
}
