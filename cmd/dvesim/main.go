// Command dvesim runs one benchmark under one protocol configuration and
// prints detailed statistics. A run that ends with coherence invariant
// violations prints them to standard error and exits 1.
//
// Usage:
//
//	dvesim -workload fft -protocol deny -ops 2000000 -warmup 500000
//	dvesim -workload xsbench -protocol dynamic -link-ns 60
//	dvesim -workload fft -protocol deny -trace-events trace.json   # open in Perfetto
//	dvesim -list
package main

import (
	"flag"
	"fmt"
	"os"

	"dve/internal/dve"
	"dve/internal/perf"
	"dve/internal/stats"
	"dve/internal/telemetry"
	"dve/internal/topology"
	"dve/internal/workload"
)

func main() {
	var (
		name    = flag.String("workload", "fft", "benchmark name (see -list)")
		proto   = flag.String("protocol", "deny", "baseline|allow|deny|dynamic|intel-mirror")
		ops     = flag.Uint64("ops", 1_000_000, "memory operations in the region of interest")
		warmup  = flag.Uint64("warmup", 250_000, "warmup operations before the ROI")
		linkNs  = flag.Float64("link-ns", 50, "inter-socket link latency (ns, one way)")
		rdSize  = flag.Int("rd-entries", 2048, "replica directory entries")
		noSpec  = flag.Bool("no-spec", false, "disable speculative replica access")
		coarse  = flag.Bool("coarse", false, "coarse-grain (region) replica directory")
		oracle  = flag.Bool("oracle", false, "oracular replica directory (Fig 9 ceiling)")
		baseCmp = flag.Bool("speedup", false, "also run the baseline and report speedup")
		list    = flag.Bool("list", false, "list benchmarks and exit")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf = flag.String("memprofile", "", "write a heap profile recording every allocation to this file on exit (exact -sample_index=alloc_objects counts)")
		traceEv = flag.String("trace-events", "", "write a Chrome trace-event JSON timeline (open in Perfetto) to this file")
	)
	flag.Parse()

	stopCPU, err := perf.StartCPUProfile(*cpuProf)
	if err != nil {
		fatal(err)
	}
	defer stopCPU()
	stopMem, err := perf.StartMemProfile(*memProf)
	if err != nil {
		fatal(err)
	}
	defer stopMem()

	if *list {
		for _, s := range workload.Suite(16) {
			fmt.Printf("%-16s footprint=%3dMB priv=%.2f sharedRO=%.2f locality=%.2f\n",
				s.Name, s.FootprintMB, s.PrivFrac, s.SharedROFrac, s.Locality)
		}
		return
	}

	p, err := topology.ParseProtocol(*proto)
	if err != nil {
		fatal(err)
	}
	spec, ok := workload.ByName(*name, 16)
	if !ok {
		fatal(fmt.Errorf("unknown workload %q (use -list)", *name))
	}

	cfg := topology.Default(p)
	cfg.InterSocketNs = *linkNs
	cfg.ReplicaDirEntries = *rdSize
	cfg.SpeculativeReads = !*noSpec
	cfg.CoarseGrain = *coarse
	cfg.Oracular = *oracle

	rc := dve.RunConfig{Cfg: cfg, WarmupOps: *warmup, MeasureOps: *ops,
		Classify: p == topology.ProtoBaseline}
	var tracer *telemetry.Tracer
	if *traceEv != "" {
		tracer = telemetry.NewTracer(telemetry.Options{
			TraceEvents: true, FlightRecorderLines: 256,
		})
		rc.Telemetry = tracer
	}
	res, err := dve.Run(spec, rc)
	if err != nil {
		fatal(err)
	}
	printResult(res)
	if tracer != nil {
		// Only the main run is traced: the -speedup baseline below runs on
		// a fresh engine whose clock restarts at zero, which would fold a
		// second timeline onto the same tracks.
		if err := tracer.WriteTraceFile(*traceEv); err != nil {
			fatal(err)
		}
		fmt.Printf("trace: %d events -> %s (dropped %d)\n",
			tracer.Events(), *traceEv, tracer.Dropped())
	}
	if n := len(res.InvariantViolations); n > 0 {
		// The statistics above come from a run that broke a coherence
		// invariant; exiting 1 keeps a script from taking them as valid.
		fmt.Fprintf(os.Stderr, "dvesim: the run ended with %d coherence invariant violations:\n", n)
		for _, v := range res.InvariantViolations[:min(n, 5)] {
			fmt.Fprintln(os.Stderr, "  "+v)
		}
		if n > 5 {
			fmt.Fprintf(os.Stderr, "  ... and %d more\n", n-5)
		}
		stopMem()
		stopCPU()
		os.Exit(1)
	}

	if *baseCmp && p != topology.ProtoBaseline {
		bcfg := topology.Default(topology.ProtoBaseline)
		bcfg.InterSocketNs = *linkNs
		base, err := dve.Run(spec, dve.RunConfig{Cfg: bcfg, WarmupOps: *warmup, MeasureOps: *ops})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("\nspeedup over baseline NUMA: %.3f\n",
			stats.Speedup(base.Cycles, res.Cycles))
		fmt.Printf("inter-socket traffic vs baseline: %.3f\n",
			float64(res.Counters.LinkBytes)/float64(base.Counters.LinkBytes))
	}
}

func printResult(res *dve.Result) {
	c := &res.Counters
	fmt.Printf("workload=%s protocol=%s\n", res.Workload, res.Protocol)
	fmt.Printf("ROI cycles            %d\n", res.Cycles)
	fmt.Printf("sync epochs           %d (%d barrier stalls)\n",
		res.Counters.EngineEpochs, res.Counters.EngineBarrierStalls)
	fmt.Printf("ops                   %d (reads %d, writes %d)\n", c.Ops, c.Reads, c.Writes)
	fmt.Printf("L1 hit rate           %.4f\n", rate(c.L1Hits, c.L1Hits+c.L1Misses))
	fmt.Printf("LLC hit rate          %.4f  (MPKI %.2f)\n", rate(c.LLCHits, c.LLCHits+c.LLCMisses), c.MPKI())
	fmt.Printf("avg LLC-miss latency  %.1f cycles\n", c.AvgMemLatency())
	fmt.Printf("miss latency          %s\n", c.MissLatency.String())
	fmt.Printf("link traffic          %d msgs, %d bytes\n", c.LinkMsgs, c.LinkBytes)
	fmt.Printf("DRAM                  %d reads, %d writes, row-hit %.3f\n",
		c.DRAMReads, c.DRAMWrites, rate(c.RowHits, c.RowHits+c.RowMisses))
	if res.Protocol == topology.ProtoAllow || res.Protocol == topology.ProtoDeny ||
		res.Protocol == topology.ProtoDynamic {
		fmt.Printf("replica dir           hits %d, misses %d (hit rate %.3f)\n",
			c.ReplicaDirHits, c.ReplicaDirMisses, rate(c.ReplicaDirHits, c.ReplicaDirHits+c.ReplicaDirMisses))
		fmt.Printf("replica reads         %d (%.3f of LLC-miss reads served locally)\n",
			c.ReplicaReads, rate(c.ReplicaReads, c.ReplicaReads+c.HomeReads))
		fmt.Printf("speculative reads     %d issued, %d squashed\n", c.SpecIssued, c.SpecSquashed)
		fmt.Printf("dual writebacks       %d\n", c.DualWritebacks)
	}
	if res.Protocol == topology.ProtoDynamic {
		fmt.Printf("dynamic epochs        allow=%d deny=%d\n", c.EpochsAllow, c.EpochsDeny)
	}
	if mix := c.SharingMix(); mix != [4]float64{} {
		fmt.Printf("sharing classes       priv-read %.3f, read-only %.3f, read/write %.3f, priv-RW %.3f\n",
			mix[0], mix[1], mix[2], mix[3])
	}
	if c.CorrectedErrors+c.DetectedUncorrect > 0 {
		fmt.Printf("reliability           CE=%d recoveries=%d DUE=%d degraded=%d\n",
			c.CorrectedErrors, c.Recoveries, c.DetectedUncorrect, c.DegradedLines)
	}
}

func rate(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dvesim:", err)
	os.Exit(1)
}
