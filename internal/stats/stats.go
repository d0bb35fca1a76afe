// Package stats collects simulation counters and provides the aggregate
// statistics used in the paper's evaluation (geometric-mean speedups over the
// top-10 / top-15 / all-20 benchmark groups, normalized traffic, sharing-class
// distributions).
package stats

import (
	"fmt"
	"math"
	"strings"
)

// Counters accumulates the per-run statistics reported by the simulator.
type Counters struct {
	Cycles uint64 // total simulated cycles for the region of interest
	Ops    uint64 // memory + compute operations retired

	Reads, Writes uint64

	L1Hits, L1Misses   uint64
	LLCHits, LLCMisses uint64

	// Inter-socket link accounting (Fig 8).
	LinkMsgs, LinkBytes uint64

	// Sharing-pattern classification at the home directory (Fig 7).
	PrivateRead, ReadOnly, ReadWrite, PrivateReadWrite uint64

	// Replica behaviour.
	ReplicaDirHits, ReplicaDirMisses uint64
	ReplicaReads                     uint64 // reads served by the local replica
	HomeReads                        uint64 // reads served by home memory
	SpecIssued, SpecSquashed         uint64
	DualWritebacks                   uint64

	// MissLatency is the LLC-miss service-time distribution.
	MissLatency Histogram

	// DRAM events (for the energy model).
	DRAMReads, DRAMWrites   uint64
	RowHits, RowMisses      uint64
	DRAMBusyCycles          uint64
	DRAMChannels            int
	MemLatencySum, MemCount uint64 // average memory latency

	// Reliability events during simulation with fault injection.
	CorrectedErrors   uint64
	DetectedUncorrect uint64
	Recoveries        uint64 // recoveries via replica
	DegradedLines     uint64

	// RAS escalation-ladder events (retry → replica → repair-verify →
	// retire) and graceful-degradation accounting.
	RetriedReads      uint64 // local re-reads after a detected error
	RetrySuccesses    uint64 // errors that cleared on a local re-read
	RepairWrites      uint64 // repair writes of recovered data
	RepairVerifyFails uint64 // repair writes whose verify re-read still failed
	PagesRetired      uint64 // pages retired after persistent repair failure
	DegradedReads     uint64 // reads funneled straight to the surviving copy
	SocketKills       uint64 // memory controllers lost mid-run
	DemotedLines      uint64 // lines demoted to unreplicated mode by a kill
	SilentCorruptions uint64 // undetected corrupt reads (CodeNone only)

	// Adversarial RowHammer campaign accounting (attack pressure vs. the
	// replica + scrub/repair defense ladder).
	HammerCrossings     uint64 // rows whose activation count crossed the threshold in a window
	HammerFlips         uint64 // bitflips injected into victim rows
	HammerDetected      uint64 // injected flips first detected by a read or scrub
	HammerDetectLatency uint64 // summed inject-to-first-detect cycles over detected flips
	HammerCorruptReads  uint64 // detected-uncorrectable reads of hammer-flipped lines (served corrupt when unreplicated)
	HammerRepairs       uint64 // hammer-flipped lines healed by a verified repair write

	// Dynamic protocol profile decisions.
	EpochsAllow, EpochsDeny uint64

	// Parallel-engine accounting. Both are pure functions of the event
	// trace (independent of how many worker goroutines executed it), so
	// they are safe in deterministic, byte-compared statistics: epochs is
	// the number of lookahead windows executed; barrier stalls counts
	// partition-epochs that had no event inside the window (the
	// load-imbalance signal).
	EngineEpochs        uint64
	EngineBarrierStalls uint64

	// Instrumentation health. Both are observations *about* the telemetry
	// layer, stamped into the result after the run completes: TraceDropped
	// counts span events discarded by lane exhaustion (a nonzero value
	// means the trace is a sample, never silently); FlightDumps counts
	// flight-recorder linearisations — each one marks an invariant
	// violation or socket-kill report. Zero in every healthy run, so
	// traced-vs-untraced byte-identity is preserved.
	TraceDropped uint64
	FlightDumps  uint64
}

// Merge accumulates o into c. Every scalar event counter adds; the miss
// latency histogram merges; DRAMChannels is a configuration echo (not an
// event count) and is adopted from o when c has none. The per-socket
// partitioned run uses this to fold socket-local counter shards into one
// run-level view — always folding in ascending socket order, so the result
// is deterministic.
func (c *Counters) Merge(o *Counters) {
	c.Cycles += o.Cycles
	c.Ops += o.Ops
	c.Reads += o.Reads
	c.Writes += o.Writes
	c.L1Hits += o.L1Hits
	c.L1Misses += o.L1Misses
	c.LLCHits += o.LLCHits
	c.LLCMisses += o.LLCMisses
	c.LinkMsgs += o.LinkMsgs
	c.LinkBytes += o.LinkBytes
	c.PrivateRead += o.PrivateRead
	c.ReadOnly += o.ReadOnly
	c.ReadWrite += o.ReadWrite
	c.PrivateReadWrite += o.PrivateReadWrite
	c.ReplicaDirHits += o.ReplicaDirHits
	c.ReplicaDirMisses += o.ReplicaDirMisses
	c.ReplicaReads += o.ReplicaReads
	c.HomeReads += o.HomeReads
	c.SpecIssued += o.SpecIssued
	c.SpecSquashed += o.SpecSquashed
	c.DualWritebacks += o.DualWritebacks
	c.MissLatency.Merge(&o.MissLatency)
	c.DRAMReads += o.DRAMReads
	c.DRAMWrites += o.DRAMWrites
	c.RowHits += o.RowHits
	c.RowMisses += o.RowMisses
	c.DRAMBusyCycles += o.DRAMBusyCycles
	if c.DRAMChannels == 0 {
		c.DRAMChannels = o.DRAMChannels
	}
	c.MemLatencySum += o.MemLatencySum
	c.MemCount += o.MemCount
	c.CorrectedErrors += o.CorrectedErrors
	c.DetectedUncorrect += o.DetectedUncorrect
	c.Recoveries += o.Recoveries
	c.DegradedLines += o.DegradedLines
	c.RetriedReads += o.RetriedReads
	c.RetrySuccesses += o.RetrySuccesses
	c.RepairWrites += o.RepairWrites
	c.RepairVerifyFails += o.RepairVerifyFails
	c.PagesRetired += o.PagesRetired
	c.DegradedReads += o.DegradedReads
	c.SocketKills += o.SocketKills
	c.DemotedLines += o.DemotedLines
	c.SilentCorruptions += o.SilentCorruptions
	c.HammerCrossings += o.HammerCrossings
	c.HammerFlips += o.HammerFlips
	c.HammerDetected += o.HammerDetected
	c.HammerDetectLatency += o.HammerDetectLatency
	c.HammerCorruptReads += o.HammerCorruptReads
	c.HammerRepairs += o.HammerRepairs
	c.EpochsAllow += o.EpochsAllow
	c.EpochsDeny += o.EpochsDeny
	c.EngineEpochs += o.EngineEpochs
	c.EngineBarrierStalls += o.EngineBarrierStalls
	c.TraceDropped += o.TraceDropped
	c.FlightDumps += o.FlightDumps
}

// MPKI returns LLC misses per thousand operations, the paper's workload
// ordering metric ("descending order of L2 MPKI").
func (c *Counters) MPKI() float64 {
	if c.Ops == 0 {
		return 0
	}
	return float64(c.LLCMisses) / float64(c.Ops) * 1000
}

// AvgMemLatency returns the mean LLC-miss service latency in cycles.
func (c *Counters) AvgMemLatency() float64 {
	if c.MemCount == 0 {
		return 0
	}
	return float64(c.MemLatencySum) / float64(c.MemCount)
}

// SharingMix returns the Fig 7 class fractions in order: private-read,
// read-only, read/write, private-read/write. Fractions sum to 1 when any
// requests were classified.
func (c *Counters) SharingMix() [4]float64 {
	tot := c.PrivateRead + c.ReadOnly + c.ReadWrite + c.PrivateReadWrite
	if tot == 0 {
		return [4]float64{}
	}
	return [4]float64{
		float64(c.PrivateRead) / float64(tot),
		float64(c.ReadOnly) / float64(tot),
		float64(c.ReadWrite) / float64(tot),
		float64(c.PrivateReadWrite) / float64(tot),
	}
}

// Geomean returns the geometric mean of xs, skipping non-positive and
// non-finite values (a degenerate cell — a zero-cycle run, a NaN ratio —
// must not crash report generation). It returns 0 for an empty slice and
// NaN when every value was skipped, so a fully degenerate group is visible
// in the output rather than rendered as a plausible number. Callers that
// want to warn about skips use GeomeanSkipped.
func Geomean(xs []float64) float64 {
	g, _ := GeomeanSkipped(xs)
	return g
}

// GeomeanSkipped is Geomean plus the count of values it had to skip, so
// report formatters can flag partially degenerate aggregates.
func GeomeanSkipped(xs []float64) (float64, int) {
	if len(xs) == 0 {
		return 0, 0
	}
	s, n := 0.0, 0
	for _, x := range xs {
		if x <= 0 || math.IsInf(x, 1) || math.IsNaN(x) {
			continue
		}
		s += math.Log(x)
		n++
	}
	if n == 0 {
		return math.NaN(), len(xs)
	}
	return math.Exp(s / float64(n)), len(xs) - n
}

// Speedup returns baselineCycles/cycles: >1 means faster than baseline.
// Either side being zero marks a degenerate run (an empty ROI); the result
// is NaN so tables show the breakage instead of a false 0x.
func Speedup(baselineCycles, cycles uint64) float64 {
	if cycles == 0 || baselineCycles == 0 {
		return math.NaN()
	}
	return float64(baselineCycles) / float64(cycles)
}

// Row is one benchmark's results across schemes, used by report tables.
type Row struct {
	Name   string
	MPKI   float64
	Values map[string]float64 // scheme -> value (speedup, traffic, ...)
}

// Table formats rows with a fixed scheme column order plus geomean summary
// rows for the top-N groups (rows must already be sorted by descending MPKI).
type Table struct {
	Title   string
	Schemes []string
	Rows    []Row
}

// String renders the table in a fixed-width layout with geomean rows for
// top-10, top-15 and all benchmarks, mirroring the paper's reporting.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", t.Title)
	fmt.Fprintf(&b, "%-16s %8s", "benchmark", "MPKI")
	for _, s := range t.Schemes {
		fmt.Fprintf(&b, " %14s", s)
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-16s %8.2f", r.Name, r.MPKI)
		for _, s := range t.Schemes {
			fmt.Fprintf(&b, " %14.3f", r.Values[s])
		}
		b.WriteByte('\n')
	}
	skipped := 0
	for _, n := range []int{10, 15, len(t.Rows)} {
		if n > len(t.Rows) {
			continue
		}
		fmt.Fprintf(&b, "%-16s %8s", fmt.Sprintf("geomean-top%d", n), "")
		for _, s := range t.Schemes {
			vals := make([]float64, 0, n)
			for _, r := range t.Rows[:n] {
				if v, ok := r.Values[s]; ok {
					vals = append(vals, v)
				}
			}
			gm, sk := GeomeanSkipped(vals)
			skipped += sk
			fmt.Fprintf(&b, " %14.3f", gm)
		}
		b.WriteByte('\n')
	}
	if skipped > 0 {
		fmt.Fprintf(&b, "warning: %d degenerate (non-positive or non-finite) cells skipped in geomeans\n", skipped)
	}
	return b.String()
}
