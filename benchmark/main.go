// Command benchmark measures the simulator's own host-side cost on four
// workloads and breaks it down by layer. Run it from the repository root:
//
//	go run ./benchmark --workload fft-deny --seed 1 --seconds 25 --trace 0
//
// (benchmark/run.sh does the same from a fresh checkout, keeping the
// toolchain's caches inside it). Every number comes from the dve.Run calls
// the command makes; nothing is read back from a result cache.
//
// With --trace 0 it runs the untraced pass: a closed loop of cells for
// --seconds and the set-up repetitions, and reports the end-to-end metrics.
// With --trace 1 it runs a shorter untraced pass, then CPU-profiles further
// cells, climbs the per-layer ladder, writes <dir>/<workload>.cpu.pprof and
// <dir>/<workload>.spans.json, and reports the per-layer metrics. Either
// way the last line of standard output is one JSON object: correct,
// attempted and failed count cells, and metrics holds every metric with
// its unit. See README.md for the workloads and metric definitions.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	idve "dve/internal/dve"
	"dve/internal/perf"
	"dve/internal/stats"
	"dve/internal/workload"
)

// options are the command-line flags.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	traceDir string
	jsonPath string
}

// plan sizes one run. The command derives it from --seconds; the smoke
// test shrinks it.
type plan struct {
	// seconds is the untraced pass's budget: cells run back to back until
	// it has passed and at least minCells have run. A traced run spends half
	// of it untraced, to measure the tracing overhead against.
	seconds  time.Duration
	minCells int
	// setupReps minimal runs time the set-up.
	setupReps int
	// profileCPU is the process CPU time the profiled pass accumulates:
	// 10.5 s gives at least 1000 samples at the profiler's 100 Hz.
	profileCPU time.Duration
}

func planFor(seconds int) plan {
	return plan{
		seconds:    time.Duration(seconds) * time.Second,
		minCells:   5,
		setupReps:  40,
		profileCPU: 10500 * time.Millisecond,
	}
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	w, err := workloadByName(o.workload)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	r, err := bench(w, o, planFor(o.seconds), os.Stdout)
	if err == nil && o.jsonPath != "" {
		err = writeJSONFile(o.jsonPath, r)
	}
	if err == nil {
		err = writeReport(os.Stdout, r)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func parseFlags(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload: fft-deny, lbm-baseline, canneal-dynamic or fft-deny-2w")
	fs.Int64Var(&o.seed, "seed", 1, "input seed, mixed with the suite workload's own seed")
	fs.IntVar(&o.seconds, "seconds", 25, "untraced measuring budget in seconds")
	fs.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: traced pass and per-layer metrics")
	fs.StringVar(&o.traceDir, "trace-dir", ".bench_out", "where --trace 1 writes the CPU profile and spans")
	fs.StringVar(&o.jsonPath, "json", "", "also write the result object to this file")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	switch {
	case fs.NArg() > 0:
		return o, fmt.Errorf("unexpected arguments %q", fs.Args())
	case o.workload == "":
		return o, fmt.Errorf("--workload is required")
	case o.seconds < 1:
		return o, fmt.Errorf("--seconds must be at least 1")
	case o.trace != 0 && o.trace != 1:
		return o, fmt.Errorf("--trace must be 0 or 1")
	}
	return o, nil
}

// bench runs one workload and returns its result object. The human-readable
// account goes to out as it happens.
func bench(w workloadDef, o options, p plan, out io.Writer) (report, error) {
	spec, err := w.spec(o.seed)
	if err != nil {
		return report{}, err
	}
	rc := w.runConfig(w.engine, w.warmup, w.measure)
	fmt.Fprintf(out, "workload %s: %s/%s engine=%s ops=%d+%d seed=%d\n",
		w.name, w.suite, w.protocol, w.engine, w.warmup, w.measure, o.seed)
	fmt.Fprintf(out, "host: GOMAXPROCS=%d NumCPU=%d %s %s/%s\n",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), runtime.GOOS, runtime.GOARCH)

	sp := newSpans()
	sp.begin(w.name)
	twin := ""
	if w.engine == idve.EngineParallel {
		sp.begin("twin")
		c := runCell(spec, w.runConfig(idve.EngineSerial, w.warmup, w.measure))
		sp.end()
		if r := gate([]cell{c}, w.measure, spec.Threads, ""); r[0] != "" {
			twin = "failed" // matches no digest, so every parallel cell fails
			fmt.Fprintf(out, "FAIL serial twin: %s\n", r[0])
		} else {
			twin = c.digest
			fmt.Fprintf(out, "serial twin: %.4f s digest %.12s\n", c.wall.Seconds(), twin)
		}
	}

	if o.trace == 0 {
		return untraced(w, spec, rc, p, twin, sp, out)
	}
	return traced(w, spec, rc, p, twin, o.traceDir, sp, out)
}

// untraced measures the end-to-end metrics.
func untraced(w workloadDef, spec workload.Spec, rc idve.RunConfig, p plan, twin string, sp *spans, out io.Writer) (report, error) {
	setup, err := measureSetup(w, spec, p.setupReps, sp)
	if err != nil {
		return report{}, err
	}
	fmt.Fprintf(out, "setup wall time (s): %s\n", summarize(walls(setup)))
	fmt.Fprintf(out, "setup normalized time (s): %s\n", summarize(normalized(setup)))

	cells := runPass("untraced", spec, rc, timeBudget(p.seconds, p.minCells), true, sp, out)
	rss := peakRSSMB()
	sp.end()

	r := judge(cells, w.measure, spec.Threads, twin, out)
	fmt.Fprintf(out, "cell normalized time (s): %s\n", summarize(normalized(cells)))
	var mallocs, bytes uint64
	for _, c := range cells {
		mallocs += c.mallocs
		bytes += c.bytes
	}
	ops := float64(w.ops())
	simOps := ops * float64(len(cells))
	fmt.Fprintf(out, "from wall times, not normalized: sim_ops_per_s %.6g ops/s, setup_s %.6g s\n",
		ops/median(walls(cells)), median(walls(setup)))
	m := newMetricSet(endToEnd)
	m.set("sim_ops_per_s", ops/median(normalized(cells)))
	m.set("setup_s", median(normalized(setup)))
	m.set("allocs_per_op", float64(mallocs)/simOps)
	m.set("bytes_per_op", float64(bytes)/simOps)
	m.set("peak_rss_mb", rss)
	fmt.Fprintln(out, "end-to-end metrics:")
	m.print(out)
	r.Metrics = m.metrics()
	return r, nil
}

// measureSetup times reps minimal runs (no warmup, one measured op) on the
// workload's configuration: building the 2-socket machine with its
// footprint-presized directories and returning a result.
func measureSetup(w workloadDef, spec workload.Spec, reps int, sp *spans) ([]cell, error) {
	rc := w.runConfig(w.engine, 0, 1)
	cells := runPass("setup", spec, rc, func(n int) bool { return n < reps }, true, sp, io.Discard)
	for _, c := range cells {
		if c.err != nil {
			return nil, fmt.Errorf("setup run: %w", c.err)
		}
	}
	return cells, nil
}

// walls returns the cells' wall times in seconds.
func walls(cells []cell) []float64 {
	out := make([]float64, len(cells))
	for i, c := range cells {
		out[i] = c.wall.Seconds()
	}
	return out
}

// normalized returns the cells' normalized wall times in seconds.
func normalized(cells []cell) []float64 {
	out := make([]float64, len(cells))
	for i, c := range cells {
		out[i] = c.normalized()
	}
	return out
}

// traced measures the per-layer metrics.
func traced(w workloadDef, spec workload.Spec, rc idve.RunConfig, p plan, twin, dir string, sp *spans, out io.Writer) (report, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return report{}, fmt.Errorf("trace dir: %w", err)
	}
	base := runPass("untraced", spec, rc, timeBudget(p.seconds/2, p.minCells), false, sp, out)

	profPath := filepath.Join(dir, w.name+".cpu.pprof")
	stop, err := perf.StartCPUProfile(profPath)
	if err != nil {
		return report{}, err
	}
	cpu0 := cpuTime()
	profiled := runPass("profiled", spec, rc, func(n int) bool {
		return n < 2 || cpuTime()-cpu0 < p.profileCPU
	}, false, sp, out)
	stop()

	sp.begin("ladder")
	lr, err := runLadder(spec, rc.Cfg, int(w.ops()), sp)
	sp.end()
	if err != nil {
		return report{}, err
	}
	sp.end()
	spanPath := filepath.Join(dir, w.name+".spans.json")
	if err := sp.write(spanPath); err != nil {
		return report{}, err
	}

	f, err := os.Open(profPath)
	if err != nil {
		return report{}, fmt.Errorf("read profile: %w", err)
	}
	samples, err := parseProfile(f)
	f.Close()
	if err != nil {
		return report{}, err
	}
	shares, total := attribute(samples)

	r := judge(append(base, profiled...), w.measure, spec.Threads, twin, out)
	baseMedian := median(walls(base))
	m := newMetricSet(perLayer)
	for _, b := range buckets() {
		m.set(shareMetric(b), shares[b])
	}
	m.set("sim.dispatch_ns", lr.dispatch.ns)
	m.set("sim.dispatch_allocs", lr.dispatch.allocs)
	m.set("workload.next_ns", lr.next.ns)
	m.set("workload.next_allocs", lr.next.allocs)
	m.set("cache.l1_ns", lr.l1.ns)
	m.set("cache.llc_ns", lr.llc.ns)
	m.set("cache.replicadir_ns", lr.replicaDir.ns)
	m.set("cache.replicadir_allocs", lr.replicaDir.allocs)
	m.set("mem.access_ns", lr.dram.ns)
	m.set("mem.access_allocs", lr.dram.allocs)
	m.set("noc.send_ns", lr.link.ns)
	m.set("noc.send_allocs", lr.link.allocs)

	c := firstCounters(base)
	roiOps := float64(c.Ops)
	l1 := float64(c.L1Hits + c.L1Misses)
	llc := float64(c.LLCHits + c.LLCMisses)
	rdLookups := float64(c.ReplicaDirHits + c.ReplicaDirMisses)
	dram := float64(c.DRAMReads + c.DRAMWrites)
	m.set("sim.epochs_per_kop", ratio(float64(c.EngineEpochs), float64(w.ops())/1000))
	m.set("sim.barrier_stall_ratio", ratio(float64(c.EngineBarrierStalls), float64(c.EngineEpochs)*float64(rc.Cfg.Sockets)))
	m.set("cache.l1_hit_ratio", ratio(float64(c.L1Hits), l1))
	m.set("cache.llc_hit_ratio", ratio(float64(c.LLCHits), llc))
	m.set("cache.llc_misses_per_op", ratio(float64(c.LLCMisses), roiOps))
	m.set("dve.replicadir_lookups_per_op", ratio(rdLookups, roiOps))
	m.set("dve.replicadir_hit_ratio", ratio(float64(c.ReplicaDirHits), rdLookups))
	m.set("dve.replica_read_ratio", ratio(float64(c.ReplicaReads), float64(c.ReplicaReads+c.HomeReads)))
	m.set("dve.spec_squash_ratio", ratio(float64(c.SpecSquashed), float64(c.SpecIssued)))
	m.set("dve.dual_writebacks_per_kop", ratio(float64(c.DualWritebacks), roiOps/1000))
	m.set("coherence.miss_latency_p50_cyc", c.MissLatency.Percentile(0.50))
	m.set("coherence.miss_latency_p99_cyc", c.MissLatency.Percentile(0.99))
	m.set("mem.accesses_per_op", ratio(dram, roiOps))
	m.set("mem.row_hit_ratio", ratio(float64(c.RowHits), float64(c.RowHits+c.RowMisses)))
	m.set("mem.busy_cycles_per_access", ratio(float64(c.DRAMBusyCycles), dram))
	m.set("noc.msgs_per_op", ratio(float64(c.LinkMsgs), roiOps))
	m.set("noc.bytes_per_op", ratio(float64(c.LinkBytes), roiOps))

	// The counters cover the ROI only; scale them to the whole cell, whose
	// wall time includes set-up and warmup.
	perCell := ratio(float64(w.ops()), roiOps)
	predictedNS := perCell * ((lr.dispatch.ns+lr.next.ns)*roiOps +
		lr.l1.ns*l1 + lr.llc.ns*llc + lr.replicaDir.ns*rdLookups +
		lr.dram.ns*dram + lr.link.ns*float64(c.LinkMsgs))
	m.set("attrib.predicted_ms", predictedNS/1e6)
	m.set("attrib.unexplained_frac", 1-ratio(predictedNS/1e9, baseMedian))
	m.set("trace.overhead_frac", ratio(median(walls(profiled)), baseMedian)-1)
	m.set("trace.samples", float64(total))

	fmt.Fprintf(out, "wrote %s (%d samples) and %s\n", profPath, total, spanPath)
	fmt.Fprintln(out, "per-layer metrics:")
	m.print(out)
	r.Metrics = m.metrics()
	return r, nil
}

// firstCounters returns the counters of the first cell that produced a
// result; all passing cells have identical counters.
func firstCounters(cells []cell) stats.Counters {
	for _, c := range cells {
		if c.err == nil {
			return c.res.Counters
		}
	}
	return stats.Counters{}
}

// timeBudget continues a pass until budget has passed since its first
// check and at least minCells have run.
func timeBudget(budget time.Duration, minCells int) func(n int) bool {
	var start time.Time
	return func(n int) bool {
		if start.IsZero() {
			start = time.Now()
		}
		return n < minCells || time.Since(start) < budget
	}
}

// runPass runs cells back to back, as a closed loop, while more(n) holds
// for the n cells run so far. With ref set it times the reference loop
// between consecutive cells, after collecting garbage so the loop does not
// race the collector, and gives each cell the mean of the loops on either
// side of it.
func runPass(name string, spec workload.Spec, rc idve.RunConfig, more func(n int) bool, ref bool, sp *spans, out io.Writer) []cell {
	sp.begin(name)
	defer sp.end()
	quietRef := func() time.Duration {
		if !ref {
			return 0
		}
		runtime.GC()
		return refLoop()
	}
	var cells []cell
	prev := quietRef()
	for more(len(cells)) {
		sp.begin(fmt.Sprintf("cell %d", len(cells)))
		c := runCell(spec, rc)
		sp.end()
		next := quietRef()
		c.ref, prev = (prev+next)/2, next
		cells = append(cells, c)
		fmt.Fprintf(out, "  %s cell %2d: %.4f s, reference loop %.2f ms, digest %.12s\n",
			name, len(cells)-1, c.wall.Seconds(), c.ref.Seconds()*1e3, c.digest)
	}
	return cells
}

// judge gates the cells, prints each failure and the cell-time summaries,
// and returns the result object without metrics.
func judge(cells []cell, measure uint64, threads int, twin string, out io.Writer) report {
	reasons := gate(cells, measure, threads, twin)
	r := report{Attempted: len(cells)}
	for i := range cells {
		if reasons[i] != "" {
			r.Failed++
			fmt.Fprintf(out, "FAIL cell %d: %s\n", i, reasons[i])
		}
	}
	r.Correct = r.Failed == 0
	fmt.Fprintf(out, "cells_failed_frac: %d/%d\n", r.Failed, r.Attempted)
	fmt.Fprintf(out, "cell wall time (s): %s\n", summarize(walls(cells)))
	for _, c := range cells {
		if c.err == nil {
			fmt.Fprintf(out, "simulated, not gated: roi_cycles=%d model.cycles_per_op=%.4f digest=%s\n",
				c.res.Cycles, ratio(float64(c.res.Cycles), float64(c.res.Counters.Ops)), c.digest)
			break
		}
	}
	return r
}

// peakRSSMB is the process's peak resident set size, less the reference
// loop's arrays, which stay resident once touched.
func peakRSSMB() float64 {
	return float64(rusage().Maxrss)/1024 - refFootprintMiB // Linux reports KiB
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	// RUSAGE_SELF with a valid pointer cannot fail.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

func writeJSONFile(path string, r report) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write result: %w", err)
	}
	if err := writeReport(f, r); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
