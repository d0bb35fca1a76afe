package dve

import (
	"runtime"
	"testing"

	"dve/internal/coherence"
	"dve/internal/topology"
)

// quickWarmup and quickMeasure are the quick experiment scale
// (experiments.Quick, which imports this package).
const quickWarmup, quickMeasure = 50_000, 120_000

// allocCell is one whole-run allocation case: a suite workload under a
// protocol, with an optional configuration tweak.
type allocCell struct {
	name     string
	workload string
	proto    topology.Protocol
	tweak    func(*topology.Config)
}

var allocCells = []allocCell{
	{"fft/deny", "fft", topology.ProtoDeny, nil},
	{"lbm/baseline", "lbm", topology.ProtoBaseline, nil},
	{"canneal/dynamic", "canneal", topology.ProtoDynamic, nil},
	// Speculative replica reads are on by default (topology.Default).
	{"graph500/allow", "graph500", topology.ProtoAllow, nil},
	{"fft/allow+coarse", "fft", topology.ProtoAllow,
		func(c *topology.Config) { c.CoarseGrain = true }},
}

func (c allocCell) config() RunConfig {
	rc := RunConfig{Cfg: topology.Default(c.proto)}
	if c.tweak != nil {
		c.tweak(&rc.Cfg)
	}
	return rc
}

// runMallocs returns the heap objects one whole Run allocates.
func runMallocs(t testing.TB, c allocCell, warmup, measure uint64) uint64 {
	t.Helper()
	rc := c.config()
	rc.WarmupOps, rc.MeasureOps = warmup, measure
	spec := smallSpec(c.workload)
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Run(spec, rc)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	return after.Mallocs - before.Mallocs
}

// TestRunSteadyStateAllocs pins the miss path's allocation budget over a
// whole dve.Run: two runs that differ only in ROI length separate the
// per-op cost from the fixed cost of building the machine, and the
// marginal cost must stay near zero. Every LLC miss rides one pooled
// transaction record (coherence.Miss), so an op allocates nothing from
// issue to fill; what remains are cold paths (writebacks, region grants,
// protocol switches) and the directories' growth with the footprint.
func TestRunSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates on its own")
	}
	const warmup, small, big = 20_000, 40_000, 160_000
	for _, c := range allocCells {
		t.Run(c.name, func(t *testing.T) {
			a := runMallocs(t, c, warmup, small)
			b := runMallocs(t, c, warmup, big)
			perOp := (float64(b) - float64(a)) / float64(big-small)
			t.Logf("%s: %d allocs at %d ops, %d at %d: %.4f allocs/op at the margin",
				c.name, a, warmup+small, b, warmup+big, perOp)
			if perOp >= 0.01 {
				t.Fatalf("%s: %.4f allocs/op at the margin, want < 0.01", c.name, perOp)
			}
		})
	}
}

// TestMissHopStamps checks the per-hop stamps every completed miss carries:
// each stamp a miss reached lies within [start, fill], and the hops along
// one leg are ordered (issue before the directory, the directory before
// the memory read it issued, a read's issue before its answer, the first
// link departure before the last arrival back).
func TestMissHopStamps(t *testing.T) {
	for _, c := range allocCells[:3] { // fft/deny, lbm/baseline, canneal/dynamic
		t.Run(c.name, func(t *testing.T) {
			rc := c.config()
			rc.WarmupOps, rc.MeasureOps = quickWarmup, quickMeasure
			var misses, bad int
			var first string
			rc.Prepare = func(sys *coherence.System) {
				sys.OnMissFill = func(m *coherence.Miss) {
					misses++
					if why := stampFault(m); why != "" {
						if bad == 0 {
							first = why
						}
						bad++
					}
				}
			}
			if _, err := Run(smallSpec(c.workload), rc); err != nil {
				t.Fatal(err)
			}
			if misses == 0 {
				t.Fatalf("%s: no miss reached its fill", c.name)
			}
			if bad != 0 {
				t.Fatalf("%s: %d of %d misses have bad stamps; first: %s", c.name, bad, misses, first)
			}
		})
	}
}

// stampFault returns why a filled miss's stamps are inconsistent, "" if
// they are not.
func stampFault(m *coherence.Miss) string {
	start, issue, fill := m.Start(), m.Stamp(coherence.HopIssue), m.Stamp(coherence.HopFill)
	if issue == 0 || fill == 0 || issue < start || fill < issue {
		return "issue/fill out of order"
	}
	for h := coherence.HopIssue; h < coherence.NumHops; h++ {
		if s := m.Stamp(h); s != 0 && (s < issue || s > fill) {
			return "a stamp lies outside [issue, fill]"
		}
	}
	ordered := func(a, b coherence.Hop) bool {
		sa, sb := m.Stamp(a), m.Stamp(b)
		return sb == 0 || sa != 0 && sa <= sb
	}
	switch {
	case m.Stamp(coherence.HopDir) == 0:
		return "no directory held the line"
	case !ordered(coherence.HopDir, coherence.HopMemIssue):
		return "memory read before the directory held the line"
	case !ordered(coherence.HopMemIssue, coherence.HopMemDone):
		return "memory read answered before it was issued"
	case !ordered(coherence.HopLinkOut, coherence.HopLinkBack):
		return "arrival back without a departure"
	}
	return ""
}

// BenchmarkRunQuick times one whole quick-scale fft/deny run and reports
// its allocations.
func BenchmarkRunQuick(b *testing.B) {
	rc := allocCells[0].config()
	rc.WarmupOps, rc.MeasureOps = quickWarmup, quickMeasure
	spec := smallSpec("fft")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(spec, rc); err != nil {
			b.Fatal(err)
		}
	}
}
