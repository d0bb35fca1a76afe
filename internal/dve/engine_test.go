package dve

import (
	"bytes"
	"encoding/json"
	"runtime"
	"testing"

	"dve/internal/topology"
	"dve/internal/workload"
)

// Cross-engine equivalence: serial and parallel are different *executions*
// of the same partitioned simulation, so they must be byte-identical
// regardless of worker count. These tests are the contract that lets cache
// keys ignore the engine mode.

// equivProtocols is every protocol family. Dynamic is included on purpose:
// it always runs on one worker, so the identity then pins that the forced
// serial execution is itself deterministic.
var equivProtocols = []topology.Protocol{
	topology.ProtoBaseline, topology.ProtoAllow, topology.ProtoDeny,
	topology.ProtoDynamic, topology.ProtoIntelMirror,
}

// fingerprint reduces a run to the bytes that must match across engine
// executions: the ROI length, the full counter set, and the telemetry
// snapshot (the CountersSnapshot view that cache envelopes and sweep
// reports carry). Workers is deliberately excluded — it is host-side cost
// metadata, the one field allowed to differ.
func fingerprint(t *testing.T, res *Result) []byte {
	t.Helper()
	b, err := json.Marshal(struct {
		Cycles   uint64
		Counters any
		Metrics  any
	}{res.Cycles, res.Counters, res.Metrics})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func runEngine(t *testing.T, spec workload.Spec, p topology.Protocol, mode EngineMode, warmup, measure uint64) *Result {
	t.Helper()
	res, err := Run(spec, RunConfig{
		Cfg:        topology.Default(p),
		WarmupOps:  warmup,
		MeasureOps: measure,
		Engine:     mode,
		Classify:   p == topology.ProtoBaseline,
	})
	if err != nil {
		t.Fatalf("%s/%s/%s: %v", spec.Name, p, mode, err)
	}
	return res
}

// TestEngineEquivalenceMatrix sweeps every Table III workload under every
// protocol and demands byte-identical results from serial and parallel
// execution. The per-cell op budget is kept small so the 20×5 matrix stays
// a tier-1 test; TestEngineEquivalenceQuickCells covers the full quick
// scale on a spot-check subset. -short trims the sweep to a diverse corner.
func TestEngineEquivalenceMatrix(t *testing.T) {
	specs := workload.Suite(16)
	protos := equivProtocols
	warmup, measure := uint64(10_000), uint64(30_000)
	if testing.Short() {
		specs = specs[:4]
		protos = []topology.Protocol{topology.ProtoAllow, topology.ProtoDeny}
	}
	for _, spec := range specs {
		for _, p := range protos {
			spec, p := spec, p
			t.Run(spec.Name+"/"+p.String(), func(t *testing.T) {
				serial := runEngine(t, spec, p, EngineSerial, warmup, measure)
				par := runEngine(t, spec, p, EngineParallel, warmup, measure)
				if p == topology.ProtoDynamic {
					// Shared controller state: forced onto one worker.
					if par.Workers != 1 {
						t.Fatalf("dynamic ran with %d workers, want 1", par.Workers)
					}
				} else if par.Workers <= 1 {
					t.Fatalf("parallel ran with %d workers", par.Workers)
				}
				fs, fp := fingerprint(t, serial), fingerprint(t, par)
				if !bytes.Equal(fs, fp) {
					t.Errorf("serial and parallel diverged:\nserial:   %s\nparallel: %s", fs, fp)
				}
			})
		}
	}
}

// TestEngineEquivalenceQuickCells re-checks the identity at the real Quick
// experiment scale (the scale CI's bench smoke and the cached sweeps run
// at) on a contrasting subset, so a divergence that only opens up beyond
// the matrix test's small budget still gets caught.
func TestEngineEquivalenceQuickCells(t *testing.T) {
	if testing.Short() {
		t.Skip("quick-scale cells take ~1s each")
	}
	cells := []struct {
		workload string
		protocol topology.Protocol
	}{
		{"fft", topology.ProtoDeny},
		{"graph500", topology.ProtoAllow},
		{"canneal", topology.ProtoBaseline},
		{"canneal", topology.ProtoDynamic},
	}
	for _, c := range cells {
		c := c
		t.Run(c.workload+"/"+c.protocol.String(), func(t *testing.T) {
			spec, ok := workload.ByName(c.workload, 16)
			if !ok {
				t.Fatalf("unknown workload %q", c.workload)
			}
			serial := runEngine(t, spec, c.protocol, EngineSerial, 50_000, 120_000)
			par := runEngine(t, spec, c.protocol, EngineParallel, 50_000, 120_000)
			fs, fp := fingerprint(t, serial), fingerprint(t, par)
			if !bytes.Equal(fs, fp) {
				t.Errorf("quick cell diverged:\nserial:   %s\nparallel: %s", fs, fp)
			}
		})
	}
}

// TestParallelRunTwiceDeterminism runs the same cell twice on the parallel
// engine and demands byte-identical results: worker goroutines may race the
// host scheduler, but the mailbox merge rule (when, src, send order) makes
// the simulation's event order — and so every statistic — a pure function
// of the inputs. The race CI job runs this test under -race, which turns
// any unsynchronized cross-partition access into a hard failure.
func TestParallelRunTwiceDeterminism(t *testing.T) {
	spec := smallSpec("graph500")
	first := runEngine(t, spec, topology.ProtoDeny, EngineParallel, 20_000, 60_000)
	second := runEngine(t, spec, topology.ProtoDeny, EngineParallel, 20_000, 60_000)
	f1, f2 := fingerprint(t, first), fingerprint(t, second)
	if !bytes.Equal(f1, f2) {
		t.Errorf("parallel run not reproducible:\nfirst:  %s\nsecond: %s", f1, f2)
	}
	if first.Counters.EngineEpochs == 0 {
		t.Error("partitioned run recorded no sync epochs")
	}
}

// TestDefaultRunIsSerial pins the zero EngineMode to one worker even when
// the host offers more than one CPU: every run the commands start leaves
// RunConfig.Engine unset, and on measured hosts the epoch handoff of a
// second worker costs more than it recovers.
func TestDefaultRunIsSerial(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	res, err := Run(smallSpec("fft"), RunConfig{
		Cfg:        topology.Default(topology.ProtoDeny),
		WarmupOps:  2_000,
		MeasureOps: 5_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Workers != 1 {
		t.Fatalf("default run used %d workers, want 1", res.Workers)
	}
}
