package main

import (
	"fmt"
	"math"

	idve "dve/internal/dve"
	"dve/internal/topology"
	"dve/internal/workload"
)

// workloadDef is one benchmark workload: a closed loop of cells, each one
// dve.Run of a Table III suite workload under topology.Default(protocol).
// BENCHMARK.json and README.md give the reason each workload is in the set.
type workloadDef struct {
	name     string
	suite    string // Table III workload name
	protocol topology.Protocol
	engine   idve.EngineMode
	// warmup fills the L1s and the replica directory but not the 8 MB LLCs;
	// measure is the region of interest. Both are summed over the 16
	// threads and sized so one cell takes about a second on a 2-CPU host.
	warmup, measure uint64
}

var workloads = []workloadDef{
	{"fft-deny", "fft", topology.ProtoDeny, idve.EngineSerial, 50_000, 300_000},
	{"lbm-baseline", "lbm", topology.ProtoBaseline, idve.EngineSerial, 50_000, 1_100_000},
	// The dynamic protocol is not partitionable, so EngineSerial resolves to
	// the legacy single-queue engine here.
	{"canneal-dynamic", "canneal", topology.ProtoDynamic, idve.EngineSerial, 50_000, 250_000},
	// Two workers on the same inputs as fft-deny; every cell must match an
	// untimed serial twin byte for byte.
	{"fft-deny-2w", "fft", topology.ProtoDeny, idve.EngineParallel, 50_000, 300_000},
}

func workloadByName(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// ops is the simulated memory operations one cell performs.
func (w workloadDef) ops() uint64 { return w.warmup + w.measure }

// spec returns the suite workload with its per-name seed mixed with seed.
func (w workloadDef) spec(seed int64) (workload.Spec, error) {
	cfg := topology.Default(w.protocol)
	s, ok := workload.ByName(w.suite, cfg.TotalCores())
	if !ok {
		return workload.Spec{}, fmt.Errorf("workload %s: no suite workload %q", w.name, w.suite)
	}
	mixed := uint64(s.Seed) ^ uint64(seed)*0x9E3779B97F4A7C15
	s.Seed = int64(mixed & math.MaxInt64)
	return s, nil
}

// runConfig returns the cell configuration with the given engine and size.
func (w workloadDef) runConfig(engine idve.EngineMode, warmup, measure uint64) idve.RunConfig {
	return idve.RunConfig{
		Cfg:        topology.Default(w.protocol),
		WarmupOps:  warmup,
		MeasureOps: measure,
		Engine:     engine,
	}
}
