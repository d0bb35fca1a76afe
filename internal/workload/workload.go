// Package workload provides synthetic, seeded multi-threaded memory-access
// generators standing in for the paper's Prism/Valgrind traces of the 20
// Table III benchmarks. Each benchmark is parameterised by the properties
// the coherence protocols actually react to: footprint, the sharing mix
// (private / shared-read-only / shared-read-write), write fractions, spatial
// locality, and compute density. The knobs are set from the paper's own
// characterisation (Fig 7) so that the sharing-class distribution — and
// hence which protocol wins — matches the published shape.
package workload

import (
	"fmt"
	"math/rand"

	"dve/internal/topology"
)

// OpKind distinguishes generated operations.
type OpKind uint8

const (
	Read OpKind = iota
	Write
	Barrier // synchronization point across all threads
)

// Op is one trace operation: a memory access preceded by Compute cycles of
// work, or a barrier.
type Op struct {
	Kind    OpKind
	Addr    topology.Addr
	Compute int
}

// Spec parameterises one benchmark's generator.
type Spec struct {
	Name    string
	Threads int

	FootprintMB int // total data footprint across regions

	// Access mix: probabilities of touching each region class. The
	// remainder (1 - Priv - SharedRO) hits the shared read-write region.
	PrivFrac     float64
	SharedROFrac float64

	// Write probabilities within the private and shared-RW regions.
	PrivWriteFrac float64
	RWWriteFrac   float64

	// Locality is the probability of a sequential (next-word) access within
	// the region; otherwise the access jumps to a random word.
	Locality float64

	// Reuse is the probability of re-touching a recently accessed location
	// (temporal locality): the access is drawn from a per-thread window of
	// recent addresses instead of generating a fresh one.
	Reuse float64

	// ZipfFrac is the fraction of shared-read-only picks drawn from a
	// Zipf-distributed hot set instead of the sequential/random cursor.
	// Real irregular workloads (graph traversals, table lookups) have a
	// power-law re-reference tail.
	ZipfFrac float64

	// StrideFrac is the fraction of shared-read-only picks that follow a
	// large power-of-two stride (FFT butterflies, matrix column walks,
	// stencil planes). Power-of-two strides concentrate on few cache sets
	// and produce conflict misses with short re-reference distances — the
	// access structure that gives the replica directory a non-zero hit rate
	// and makes its capacity matter (Fig 9).
	StrideFrac float64

	// ComputePerOp is the mean compute cycles between memory operations.
	ComputePerOp int

	// BarrierEvery inserts a global barrier every N memory ops per thread
	// (0 = none).
	BarrierEvery int

	Seed int64
}

// Validate checks the spec's probability knobs.
func (s *Spec) Validate() error {
	if s.Threads <= 0 {
		return fmt.Errorf("workload %s: threads must be positive", s.Name)
	}
	if s.PrivFrac < 0 || s.SharedROFrac < 0 || s.PrivFrac+s.SharedROFrac > 1 {
		return fmt.Errorf("workload %s: invalid region fractions", s.Name)
	}
	for _, p := range []float64{s.PrivWriteFrac, s.RWWriteFrac, s.Locality, s.Reuse, s.ZipfFrac, s.StrideFrac} {
		if p < 0 || p > 1 {
			return fmt.Errorf("workload %s: probability out of range", s.Name)
		}
	}
	if s.FootprintMB <= 0 {
		return fmt.Errorf("workload %s: footprint must be positive", s.Name)
	}
	return nil
}

// Region bases are spread far apart in the sparse simulated physical address
// space; page interleaving distributes every region across both sockets.
//
// The shared area starts at 0 and interleaves its two classes at line
// granularity: within every page, line slots congruent to 0 mod 8 belong to
// the shared read-write class and the other seven slots to the read-only
// class. Mixing the classes within pages is deliberate: coarse-grain
// (region) replica-directory grants then cover lines that later turn
// writable, which is what makes region tracking hurt some workloads in the
// paper's Fig 9.
const (
	sharedBase = 0
	privBase   = 2 << 40
	privStep   = 1 << 38 // per-thread private region spacing

	rwSlotStride = 8 // every 8th line of a shared page is read-write
)

const (
	lineBytes = 64
	wordBytes = 8 // accesses are word-granular; sequential streams hit lines
	// reuseWindow is the per-thread recency window for temporal locality.
	reuseWindow = 1024

	// strideWords is the power-of-two stride of the strided tier (64 KiB),
	// and strideSpan the number of stride steps before the walk restarts
	// one element over.
	strideWords = 8192
	strideSpan  = 2048
)

// recent is one entry of the temporal-reuse window.
type recent struct {
	addr  topology.Addr
	class uint8 // 0 private, 1 shared-RO, 2 shared-RW
}

// Generator produces the per-thread operation streams for a Spec.
type Generator struct {
	spec Spec

	roWords   uint64
	rwWords   uint64
	privWords uint64
	rwSlots   uint64 // available RW line slots across the shared area

	rngs    []*rand.Rand
	zipfs   []*rand.Zipf
	cursors [][3]uint64 // per-thread sequential cursor per region class
	sBase   []uint64    // per-thread strided-walk base
	sStep   []uint64    // per-thread strided-walk step counter
	windows [][]recent  // per-thread temporal-reuse ring
	wpos    []int
	opCount []int
}

// NewGenerator builds a generator; the spec must be valid.
func NewGenerator(spec Spec) (*Generator, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	fp := uint64(spec.FootprintMB) << 20
	g := &Generator{
		spec: spec,
		// Footprint split: 45% shared-RO, 5% shared-RW, 50% private.
		roWords:   fp * 45 / 100 / wordBytes,
		rwWords:   fp * 5 / 100 / wordBytes,
		privWords: fp * 50 / 100 / uint64(spec.Threads) / wordBytes,
	}
	if g.roWords == 0 || g.rwWords == 0 || g.privWords == 0 {
		return nil, fmt.Errorf("workload %s: footprint too small", spec.Name)
	}
	// One RW line slot per 7 RO lines (shared-layout striping).
	roLines := g.roWords / (lineBytes / wordBytes)
	g.rwSlots = roLines/(rwSlotStride-1) + 1
	rwLines := g.rwWords / (lineBytes / wordBytes)
	if rwLines > g.rwSlots {
		g.rwWords = g.rwSlots * (lineBytes / wordBytes)
	}
	for t := 0; t < spec.Threads; t++ {
		rng := rand.New(rand.NewSource(spec.Seed + int64(t)*7919))
		g.rngs = append(g.rngs, rng)
		g.zipfs = append(g.zipfs, rand.NewZipf(rng, 1.07, 1, g.roWords-1))
		g.cursors = append(g.cursors, [3]uint64{})
		g.sBase = append(g.sBase, uint64(t)*131)
		g.sStep = append(g.sStep, 0)
		g.windows = append(g.windows, make([]recent, 0, reuseWindow))
		g.wpos = append(g.wpos, 0)
		g.opCount = append(g.opCount, 0)
	}
	return g, nil
}

// roAddr maps a read-only word index to its physical address, skipping the
// RW line slots (lines congruent to 0 mod rwSlotStride).
func roAddr(w uint64) topology.Addr {
	const wpl = lineBytes / wordBytes
	k := w / wpl // RO line index
	line := k + k/(rwSlotStride-1) + 1
	return topology.Addr(sharedBase + line*lineBytes + (w%wpl)*wordBytes)
}

// rwAddr maps a shared read-write word index to its physical address: RW
// lines occupy the 0-mod-8 slots, spread evenly across the shared area.
func (g *Generator) rwAddr(w uint64) topology.Addr {
	const wpl = lineBytes / wordBytes
	j := w / wpl // RW line index
	rwLines := g.rwWords / wpl
	slot := j * g.rwSlots / rwLines
	return topology.Addr(sharedBase + slot*rwSlotStride*lineBytes + (w%wpl)*wordBytes)
}

// scramble spreads Zipf ranks over the word space so the hot set is not one
// contiguous run of lines (Fibonacci hashing).
func scramble(rank, n uint64) uint64 {
	return (rank * 0x9E3779B97F4A7C15) % n
}

// Next produces thread tid's next operation. The stream is deterministic
// per (Seed, tid).
func (g *Generator) Next(tid int) Op {
	s := &g.spec
	if s.BarrierEvery > 0 {
		// The barrier follows BarrierEvery memory ops (it does not replace
		// the Nth op): N memory ops, then a barrier, then the next interval.
		if g.opCount[tid] == s.BarrierEvery {
			g.opCount[tid] = 0
			return Op{Kind: Barrier}
		}
		g.opCount[tid]++
	}
	r := g.rngs[tid]

	// Temporal reuse: revisit a recent location.
	if win := g.windows[tid]; len(win) > 0 && r.Float64() < s.Reuse {
		e := win[r.Intn(len(win))]
		return g.finish(r, e.addr, e.class)
	}

	x := r.Float64()
	var (
		region uint8
		nWords uint64
	)
	switch {
	case x < s.PrivFrac:
		region = 0
		nWords = g.privWords
	case x < s.PrivFrac+s.SharedROFrac:
		region = 1
		nWords = g.roWords
	default:
		region = 2
		nWords = g.rwWords
	}

	var addr topology.Addr
	if y := r.Float64(); region == 1 && y < s.ZipfFrac {
		// Power-law hot-set access into the shared read-only data.
		w := scramble(g.zipfs[tid].Uint64(), g.roWords)
		addr = roAddr(w)
	} else if region == 1 && y < s.ZipfFrac+s.StrideFrac {
		// Large power-of-two strided walk (column/butterfly access).
		w := (g.sBase[tid] + g.sStep[tid]*strideWords) % g.roWords
		g.sStep[tid]++
		if g.sStep[tid] == strideSpan {
			g.sStep[tid] = 0
			g.sBase[tid]++
		}
		addr = roAddr(w)
	} else {
		cur := &g.cursors[tid][region]
		if r.Float64() < s.Locality {
			*cur = (*cur + 1) % nWords
		} else {
			*cur = uint64(r.Int63n(int64(nWords)))
		}
		switch region {
		case 0:
			addr = topology.Addr(privBase + uint64(tid)*privStep + *cur*wordBytes)
		case 1:
			addr = roAddr(*cur)
		default:
			addr = g.rwAddr(*cur)
		}
	}
	g.remember(tid, addr, region)
	return g.finish(r, addr, region)
}

// finish decides the access kind for a class and attaches compute cycles.
func (g *Generator) finish(r *rand.Rand, addr topology.Addr, class uint8) Op {
	s := &g.spec
	write := false
	switch class {
	case 0:
		write = r.Float64() < s.PrivWriteFrac
	case 2:
		write = r.Float64() < s.RWWriteFrac
	}
	kind := Read
	if write {
		kind = Write
	}
	comp := s.ComputePerOp
	if comp > 0 {
		comp = r.Intn(2*comp + 1) // mean ComputePerOp
	}
	return Op{Kind: kind, Addr: addr, Compute: comp}
}

// remember records an address in the thread's temporal-reuse window.
func (g *Generator) remember(tid int, addr topology.Addr, class uint8) {
	win := g.windows[tid]
	if len(win) < reuseWindow {
		g.windows[tid] = append(win, recent{addr, class})
		return
	}
	win[g.wpos[tid]] = recent{addr, class}
	g.wpos[tid] = (g.wpos[tid] + 1) % reuseWindow
}
