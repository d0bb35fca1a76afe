// Command dvebench regenerates the paper's tables and figures.
//
// Usage:
//
//	dvebench -experiment all            # everything (Table I, Figs 1,6-10, energy)
//	dvebench -experiment fig6 -scale full
//	dvebench -experiment table1
//	dvebench -experiment verify         # model-check both protocols
//	dvebench -experiment fig6 -cpuprofile cpu.out   # then: go tool pprof cpu.out
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"dve/internal/experiments"
	"dve/internal/perf"
	"dve/internal/results"
	"dve/internal/stats"
)

func main() {
	var (
		exp      = flag.String("experiment", "all", "table1|fig1|fig6|fig7|fig8|fig9|fig10|energy|faults|verify|all")
		scale    = flag.String("scale", "standard", "quick|standard|full")
		parallel = flag.Int("parallel", 8, "concurrent simulations")
		cacheDir = flag.String("cache", "", "result cache directory (empty = no caching)")
		minHit   = flag.Float64("min-cache-hit", 0, "fail if the cache hit rate ends below this fraction (CI guard)")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile recording every allocation to this file on exit (exact -sample_index=alloc_objects counts)")
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

	r := experiments.Runner{Parallelism: *parallel}
	r.Scale, err = experiments.ScaleByName(*scale)
	if err != nil {
		fatal(err)
	}
	var store *results.Store
	if *cacheDir != "" {
		store, err = results.Open(*cacheDir)
		if err != nil {
			fatal(err)
		}
		r.Cache = store
	}
	// The cache report runs after every experiment path, including the
	// -min-cache-hit CI guard (a cold cache with a threshold set means the
	// caching layer regressed).
	checkCache := func() {
		if store == nil {
			return
		}
		s := store.Stats()
		fmt.Fprintf(os.Stderr, "dvebench: cache %s\n", s)
		if *minHit > 0 && s.HitRate() < *minHit {
			fmt.Fprintf(os.Stderr, "dvebench: cache hit rate %.1f%% below required %.1f%%\n",
				100*s.HitRate(), 100**minHit)
			os.Exit(1)
		}
	}

	want := func(name string) bool { return *exp == name || *exp == "all" }
	// Wall-clock timing goes through the stats stopwatch: the simulator
	// itself never reads the host clock (dvelint's determinism analyzer
	// enforces this), so CLI reporting is the only place time passes.
	sw := stats.StartWallClock()

	if want("table1") {
		fmt.Println(experiments.Table1())
	}
	if want("fig1") {
		fmt.Println(experiments.Fig1())
	}
	if want("verify") {
		fmt.Println(experiments.Verify())
	}

	needPerf := want("fig6") || want("fig7") || want("fig8") || want("energy")
	if needPerf {
		perf, err := r.Perf()
		if err != nil {
			fatal(err)
		}
		if want("fig6") {
			fmt.Println(experiments.FormatFig6(perf))
			fmt.Printf("Dvé vs Intel-mirroring++ (geomean all): allow %+.1f%%, deny %+.1f%%\n\n",
				(perf.Geomean("allow", 20)/perf.Geomean("intel-mirror++", 20)-1)*100,
				(perf.Geomean("deny", 20)/perf.Geomean("intel-mirror++", 20)-1)*100)
		}
		if want("fig7") {
			fmt.Println(experiments.FormatFig7(perf))
		}
		if want("fig8") {
			fmt.Println(experiments.FormatFig8(perf))
		}
		if want("energy") {
			fmt.Println(experiments.FormatEnergy(perf))
		}
	}
	if want("fig9") {
		f9, err := r.Fig9()
		if err != nil {
			fatal(err)
		}
		fmt.Println(experiments.FormatFig9(f9))
	}
	if want("fig10") {
		f10, err := r.Fig10()
		if err != nil {
			fatal(err)
		}
		fmt.Println(experiments.FormatFig10(f10))
	}
	if want("faults") {
		fc, err := r.FaultCampaign("graph500")
		if err != nil {
			fatal(err)
		}
		fmt.Println(experiments.FormatFaultCampaign(fc))
	}
	checkCache()
	fmt.Printf("(completed in %v)\n", sw.ElapsedRounded(time.Millisecond))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dvebench:", err)
	os.Exit(1)
}
