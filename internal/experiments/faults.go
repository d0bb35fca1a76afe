package experiments

import (
	"fmt"
	"strings"

	"dve/internal/dve"
	"dve/internal/fault"
	"dve/internal/topology"
	"dve/internal/workload"
)

// Fault campaign: inject every fault class of the Fig 2 hierarchy into a
// running system under each protection scheme and tabulate the outcomes —
// recoveries, DUEs, degraded lines — plus the performance retained while
// degraded. This operationalises two of the paper's claims:
//
//   - Dvé recovers from failures at *any* level up to a whole memory
//     controller, where ECC-based schemes take a DUE (Section III);
//   - a degraded Dvé system ("only one working copy") performs comparably
//     to baseline NUMA because requests funnel to the surviving copy
//     (Section V-E).

// FaultScenario describes one injection.
type FaultScenario struct {
	Name  string
	Build func(cfg *topology.Config) *fault.Set
}

// Scenarios returns the standard campaign: one fault per level.
func Scenarios() []FaultScenario {
	mk := func(name string, f fault.Fault) FaultScenario {
		return FaultScenario{
			Name: name,
			Build: func(cfg *topology.Config) *fault.Set {
				s := fault.NewSet(cfg, fault.CodeTSD)
				s.Inject(f)
				return s
			},
		}
	}
	return []FaultScenario{
		// Cell wear-out cluster: hard cell faults scattered through the
		// address space (a single cell is statistically invisible to a
		// short run; a wear-out cluster is the realistic aging pattern).
		{
			Name: "cells",
			Build: func(cfg *topology.Config) *fault.Set {
				s := fault.NewSet(cfg, fault.CodeTSD)
				for i := 0; i < 2048; i++ {
					s.Inject(fault.Fault{Kind: fault.Cell, Socket: 0,
						Addr: topology.Addr(i * 16384)})
				}
				return s
			},
		},
		// A block of adjacent rows in one bank (chip-internal circuitry
		// failure affecting multiple rows, per Sridharan's field study).
		{
			Name: "rows",
			Build: func(cfg *topology.Config) *fault.Set {
				s := fault.NewSet(cfg, fault.CodeTSD)
				for r := uint64(0); r < 256; r++ {
					s.Inject(fault.Fault{Kind: fault.Row, Socket: 0,
						Channel: 0, Bank: 3, Row: r})
				}
				return s
			},
		},
		mk("bank", fault.Fault{Kind: fault.Bank, Socket: 0, Channel: 0, Bank: 5}),
		mk("chip", fault.Fault{Kind: fault.Chip, Socket: 0, Channel: 0, Chip: 2}),
		mk("channel", fault.Fault{Kind: fault.Channel, Socket: 0, Channel: 0}),
		mk("controller", fault.Fault{Kind: fault.Controller, Socket: 0}),
	}
}

// FaultResult is one scenario's outcome under one scheme.
type FaultResult struct {
	Scenario   string
	Protocol   string
	Recoveries uint64
	DUEs       uint64
	Degraded   uint64
	// RelPerf is throughput(scheme, faulted) / throughput(baseline,
	// fault-free): how much fault-free-baseline performance the faulted
	// system retains (see throughput).
	RelPerf float64
}

// FaultCampaign runs every scenario under the baseline (TSD detection, no
// second copy) and under Dvé (deny protocol).
func (r Runner) FaultCampaign(workloadName string) ([]FaultResult, error) {
	spec, ok := workload.ByName(workloadName, 16)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown workload %q", workloadName)
	}
	run := func(p topology.Protocol, set *fault.Set) (*dve.Result, error) {
		cfg := topology.Default(p)
		rc := dve.RunConfig{
			Cfg:        cfg,
			WarmupOps:  r.Scale.WarmupOps,
			MeasureOps: r.Scale.MeasureOps,
		}
		if set != nil {
			rc.FaultFn = set.Predicate()
		}
		return dve.Run(spec, rc)
	}
	cleanBase, err := run(topology.ProtoBaseline, nil)
	if err != nil {
		return nil, err
	}
	var out []FaultResult
	for _, sc := range Scenarios() {
		for _, p := range []topology.Protocol{topology.ProtoBaseline, topology.ProtoDeny} {
			cfg := topology.Default(p)
			res, err := run(p, sc.Build(&cfg))
			if err != nil {
				return nil, err
			}
			out = append(out, FaultResult{
				Scenario:   sc.Name,
				Protocol:   p.String(),
				Recoveries: res.Counters.Recoveries,
				DUEs:       res.Counters.DetectedUncorrect,
				Degraded:   res.Counters.DegradedLines,
				RelPerf:    throughput(res) / throughput(cleanBase),
			})
		}
	}
	return out, nil
}

// throughput is the machine's ROI throughput up to a constant factor: every
// socket runs the same op budget, so the machine completes ops at the sum
// of the sockets' inverse ROI durations. Unlike the longest socket's ROI
// (Result.Cycles), it credits the healthy socket's full speed when faults
// slow only one socket.
func throughput(res *dve.Result) float64 {
	var t float64
	for _, c := range res.SocketCycles {
		if c > 0 {
			t += 1 / float64(c)
		}
	}
	return t
}

// FormatFaultCampaign renders the campaign table.
func FormatFaultCampaign(results []FaultResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fault campaign (TSD detection; Dvé = deny protocol; perf relative to fault-free baseline)\n")
	fmt.Fprintf(&b, "%-12s %-10s %12s %8s %10s %10s\n",
		"fault", "scheme", "recoveries", "DUEs", "degraded", "rel-perf")
	for _, r := range results {
		fmt.Fprintf(&b, "%-12s %-10s %12d %8d %10d %10.3f\n",
			r.Scenario, r.Protocol, r.Recoveries, r.DUEs, r.Degraded, r.RelPerf)
	}
	return b.String()
}
