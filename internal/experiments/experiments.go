// Package experiments regenerates every table and figure of the paper's
// evaluation: Table I (reliability), Fig 1 (design points), Fig 6 (speedup),
// Fig 7 (sharing classes), Fig 8 (inter-socket traffic), Fig 9 (allow-
// protocol optimizations), Fig 10 (link-latency sensitivity), and the
// Section VII energy study. cmd/dvebench and the repository's benchmarks
// are thin wrappers over this package.
package experiments

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"dve/internal/dve"
	"dve/internal/energy"
	"dve/internal/obslog"
	"dve/internal/results"
	"dve/internal/stats"
	"dve/internal/topology"
	"dve/internal/workload"
)

// Scale sets how many operations each simulation runs. Results stabilise
// with size; Quick is meant for tests and benchmarks.
type Scale struct {
	WarmupOps  uint64
	MeasureOps uint64
}

// Predefined scales.
var (
	Quick    = Scale{WarmupOps: 50_000, MeasureOps: 120_000}
	Standard = Scale{WarmupOps: 150_000, MeasureOps: 350_000}
	Full     = Scale{WarmupOps: 400_000, MeasureOps: 1_200_000}
)

// ScaleByName resolves the CLI scale names.
func ScaleByName(name string) (Scale, error) {
	switch name {
	case "quick":
		return Quick, nil
	case "standard":
		return Standard, nil
	case "full":
		return Full, nil
	}
	return Scale{}, fmt.Errorf("experiments: unknown scale %q (quick|standard|full)", name)
}

// Runner executes simulation matrices.
type Runner struct {
	Scale Scale
	// Parallelism bounds concurrent simulations. It is a sweep's only
	// parallelism: every cell runs its partitions on one worker (the
	// serial epoch loop) and is deterministic. 0 means 8.
	Parallelism int
	// Workloads restricts the benchmark set (nil = the full Table III
	// suite). Unknown names are an error, not a silent shrink: a typo must
	// not quietly drop a column from a paper figure.
	Workloads []string
	// Cache, when set, is consulted before every cell simulation and filled
	// with the results of cells that had to run, so a repeated matrix is
	// served from disk (see internal/results for the key scheme).
	Cache *results.Store
	// Log, when set, receives cell-lifecycle events (cache hit/miss,
	// failure) from the cached runner. The nil logger is fully
	// disabled and costs one branch per site; events never influence the
	// simulation, so logged and unlogged sweeps are byte-identical.
	Log *obslog.Logger
}

func (r Runner) parallelism() int {
	if r.Parallelism <= 0 {
		return 8
	}
	return r.Parallelism
}

// suite resolves Runner.Workloads against the Table III set. Every name
// must resolve; the error says which one did not so a misspelled sweep
// fails loudly instead of silently shrinking.
func (r Runner) suite() ([]workload.Spec, error) {
	if r.Workloads == nil {
		return Suite(), nil
	}
	out := make([]workload.Spec, 0, len(r.Workloads))
	for _, name := range r.Workloads {
		s, ok := workload.ByName(name, 16)
		if !ok {
			return nil, fmt.Errorf("experiments: unknown workload %q in Runner.Workloads", name)
		}
		out = append(out, s)
	}
	return out, nil
}

// Suite returns the full Table III benchmark set used by the experiments.
func Suite() []workload.Spec { return workload.Suite(16) }

// CellKey returns the content address of one simulation cell at the
// runner's scale: the hash of everything the result is a function of. The
// worker count is not part of it: every dve.EngineMode runs the same
// partitioned simulation with byte-identical results, so one cache entry
// serves all.
func (r Runner) CellKey(spec workload.Spec, cfg topology.Config, classify bool) (results.Key, error) {
	return results.CellKey{
		Workload:   spec,
		Config:     cfg,
		WarmupOps:  r.Scale.WarmupOps,
		MeasureOps: r.Scale.MeasureOps,
		Classify:   classify,
		Seed:       spec.Seed,
	}.Hash()
}

// runOne simulates one workload under one configuration and reports a
// failure to the runner's log. key is the cell's content address for log
// correlation ("" when the runner has no cache).
func (r Runner) runOne(spec workload.Spec, cfg topology.Config, classify bool, key string) (*dve.Result, error) {
	res, err := dve.Run(spec, dve.RunConfig{
		Cfg:        cfg,
		WarmupOps:  r.Scale.WarmupOps,
		MeasureOps: r.Scale.MeasureOps,
		Classify:   classify,
	})
	if err != nil && r.Log.On(obslog.Error) {
		r.Log.Error("runner", "cell_failed", obslog.Event{
			Key: key, Attempt: 1,
			Detail: spec.Name + "/" + cfg.Protocol.String() + ": " + err.Error(),
		})
	}
	return res, err
}

// RunCell runs one cell through the cache: a valid cached result is
// returned without simulating (hit = true); otherwise the cell is simulated
// and the result stored. With no cache configured it always simulates. The
// sweep service and the figure matrices share this path.
func (r Runner) RunCell(spec workload.Spec, cfg topology.Config, classify bool) (res *dve.Result, hit bool, err error) {
	if r.Cache == nil {
		res, err = r.runOne(spec, cfg, classify, "")
		return res, false, err
	}
	key, err := r.CellKey(spec, cfg, classify)
	if err != nil {
		return nil, false, err
	}
	var cached dve.Result
	if r.Cache.Get(key, &cached) {
		if r.Log.On(obslog.Debug) {
			r.Log.Debug("runner", "cell_cache_hit", obslog.Event{
				Key: string(key), Detail: spec.Name + "/" + cfg.Protocol.String(),
			})
		}
		return &cached, true, nil
	}
	if r.Log.On(obslog.Debug) {
		r.Log.Debug("runner", "cell_cache_miss", obslog.Event{
			Key: string(key), Detail: spec.Name + "/" + cfg.Protocol.String(),
		})
	}
	res, err = r.runOne(spec, cfg, classify, string(key))
	if err != nil {
		return nil, false, err
	}
	if err := r.Cache.Put(key, res); err != nil {
		// A result we cannot store is still a failure worth surfacing: the
		// caller asked for a cached sweep and would silently lose the
		// speedup on every future run.
		return res, false, fmt.Errorf("caching %s/%s: %w", spec.Name, cfg.Protocol, err)
	}
	return res, false, nil
}

// cell identifies one simulation of a matrix.
type cell struct {
	spec     workload.Spec
	variant  string
	cfg      topology.Config
	classify bool
}

// runMatrix executes all cells with bounded parallelism and returns results
// keyed by (workload, variant). Cells run through the cache (RunCell). All
// failures are reported, not just the first: the returned error joins every
// failed cell, prefixed "workload/variant", in deterministic order.
func (r Runner) runMatrix(cells []cell) (map[string]*dve.Result, error) {
	out := make(map[string]*dve.Result, len(cells))
	var mu sync.Mutex
	var errs []error
	sem := make(chan struct{}, r.parallelism())
	var wg sync.WaitGroup
	for _, c := range cells {
		c := c
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			res, _, err := r.RunCell(c.spec, c.cfg, c.classify)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				errs = append(errs, fmt.Errorf("%s/%s: %w", c.spec.Name, c.variant, err))
				return
			}
			out[c.spec.Name+"/"+c.variant] = res
		}()
	}
	wg.Wait()
	if len(errs) > 0 {
		// Completion order is scheduling-dependent; sort so the joined
		// error message is deterministic.
		sort.Slice(errs, func(i, j int) bool { return errs[i].Error() < errs[j].Error() })
		return out, fmt.Errorf("%d of %d cells failed: %w", len(errs), len(cells), errors.Join(errs...))
	}
	return out, nil
}

// Row is one benchmark's results across scheme variants.
type Row struct {
	Name    string
	MPKI    float64 // baseline LLC misses per kilo-op (the paper's ordering)
	Speedup map[string]float64
	Traffic map[string]float64 // link bytes normalised to baseline
	Mix     [4]float64         // Fig 7 classes from the baseline run

	// Energy-delay products normalised to baseline. MemEDP follows the
	// paper's accounting (the baseline is not charged for the idle DIMMs);
	// MemEDPIdle charges the baseline's idle provisioned capacity at IDD6
	// self-refresh — the paper's "even lower when using idle memory" note.
	MemEDP     map[string]float64
	MemEDPIdle map[string]float64
	SysEDP     map[string]float64

	results map[string]*dve.Result
}

// Result of a performance matrix (Fig 6/7/8/energy share one matrix).
type PerfResult struct {
	Rows    []Row // sorted by descending MPKI
	Schemes []string
}

// Geomean returns the scheme's geometric-mean speedup over the top-n rows.
func (p *PerfResult) Geomean(scheme string, n int) float64 {
	if n > len(p.Rows) {
		n = len(p.Rows)
	}
	vals := make([]float64, 0, n)
	for _, r := range p.Rows[:n] {
		vals = append(vals, r.Speedup[scheme])
	}
	return stats.Geomean(vals)
}

// GeomeanEDP returns geometric means of the normalised memory and system
// EDPs for a scheme over all rows.
func (p *PerfResult) GeomeanEDP(scheme string) (mem, sys float64) {
	var ms, ss []float64
	for _, r := range p.Rows {
		ms = append(ms, r.MemEDP[scheme])
		ss = append(ss, r.SysEDP[scheme])
	}
	return stats.Geomean(ms), stats.Geomean(ss)
}

// Perf runs the Fig 6 matrix: every benchmark under baseline, allow, deny,
// dynamic, and Intel-mirroring++. The same results carry Fig 7 (classes),
// Fig 8 (traffic) and the energy study.
func (r Runner) Perf() (*PerfResult, error) {
	protos := []topology.Protocol{
		topology.ProtoBaseline, topology.ProtoAllow, topology.ProtoDeny,
		topology.ProtoDynamic, topology.ProtoIntelMirror,
	}
	specs, err := r.suite()
	if err != nil {
		return nil, err
	}
	var cells []cell
	for _, spec := range specs {
		for _, p := range protos {
			cells = append(cells, cell{
				spec: spec, variant: p.String(),
				cfg:      topology.Default(p),
				classify: p == topology.ProtoBaseline,
			})
		}
	}
	results, err := r.runMatrix(cells)
	if err != nil {
		return nil, err
	}
	pr := &PerfResult{Schemes: []string{"allow", "deny", "dynamic", "intel-mirror++"}}
	params := energy.DDR4()
	for _, spec := range specs {
		base := results[spec.Name+"/baseline"]
		row := Row{
			Name: spec.Name, MPKI: base.Counters.MPKI(),
			Speedup: map[string]float64{}, Traffic: map[string]float64{},
			MemEDP: map[string]float64{}, MemEDPIdle: map[string]float64{},
			SysEDP:  map[string]float64{},
			Mix:     base.Counters.SharingMix(),
			results: map[string]*dve.Result{"baseline": base},
		}
		baseE := params.Energy(activity(base, false))
		baseEIdle := params.Energy(activity(base, true))
		baseMemEDP := energy.MemoryEDP(baseE, base.Cycles, 3.0)
		baseMemEDPIdle := energy.MemoryEDP(baseEIdle, base.Cycles, 3.0)
		for _, p := range protos[1:] {
			res := results[spec.Name+"/"+p.String()]
			row.results[p.String()] = res
			row.Speedup[p.String()] = stats.Speedup(base.Cycles, res.Cycles)
			row.Traffic[p.String()] = ratio(res.Counters.LinkBytes, base.Counters.LinkBytes)
			e := params.Energy(activity(res, false))
			eIdle := params.Energy(activity(res, true))
			row.MemEDP[p.String()] = energy.MemoryEDP(e, res.Cycles, 3.0) / baseMemEDP
			row.MemEDPIdle[p.String()] = energy.MemoryEDP(eIdle, res.Cycles, 3.0) / baseMemEDPIdle
			sb, sc := energy.SystemEDP(baseE, base.Cycles, e, res.Cycles, 3.0)
			row.SysEDP[p.String()] = sc / sb
		}
		pr.Rows = append(pr.Rows, row)
	}
	sort.SliceStable(pr.Rows, func(i, j int) bool { return pr.Rows[i].MPKI > pr.Rows[j].MPKI })
	return pr, nil
}

// provisionedChannels is the machine's physical channel count (the
// replicated configuration's): the same DIMMs exist whether or not Dvé uses
// them; with chargeIdle the unused difference is billed at IDD6
// self-refresh (the paper's "idle memory still uses energy for refresh"
// note), otherwise the paper's default accounting ignores it.
const provisionedChannels = 4

func activity(res *dve.Result, chargeIdle bool) energy.Activity {
	c := &res.Counters
	idle := 0
	if chargeIdle {
		idle = provisionedChannels - c.DRAMChannels
		if idle < 0 {
			idle = 0
		}
	}
	return energy.Activity{
		Activates:    c.RowMisses,
		Reads:        c.DRAMReads,
		Writes:       c.DRAMWrites,
		Channels:     c.DRAMChannels,
		IdleChannels: idle,
		Cycles:       res.Cycles,
		ClockGHz:     3.0,
	}
}

// ratio normalises a against b. A zero denominator means the baseline run
// was degenerate (e.g. no link traffic at all); that surfaces as NaN so
// report tables show the breakage rather than a false 0.
func ratio(a, b uint64) float64 {
	if b == 0 {
		return math.NaN()
	}
	return float64(a) / float64(b)
}
