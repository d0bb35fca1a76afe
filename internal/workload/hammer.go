// RowHammer aggressor workloads. A HammerSource interleaves a victim
// workload's operation stream with reads crafted to hammer DRAM rows
// through the cache hierarchy: naive repeated reads of one address would be
// absorbed by the L1/LLC, so each aggressor thread cycles an eviction set —
// LLCWays+1 line addresses congruent modulo the LLC set stride. The set
// stride is an exact multiple of the per-bank row stride, so every group
// decodes to one (channel, bank) with rows a fixed hop apart.
//
// The eviction sets must not be shared carelessly: one set walked by every
// thread in lockstep coalesces in the MSHRs (16 threads, one DRAM read),
// and per-thread phases within one set leave most of it LLC-resident. So
// the source builds CoresPerSocket groups, each in its own LLC set, and
// assigns group tid%CoresPerSocket — exactly one core per socket walks each
// group, so every LLC observes a pure cyclic single-walker stream over
// ways+1 lines: a deterministic miss, and a DRAM activation on a closed or
// conflicting row, for every aggressor access.
//
// Placement is targeted, not random: the source replays a prefix of the
// victim's own deterministic stream to find its hottest shared DRAM row,
// and anchors the groups so that row neighbours the first aggressor rows.
// The victim row then provably holds data the workload touches early and
// re-reads often — flips there are observable by demand reads and patrol
// scrubbing, which is the defense under measurement.
package workload

import (
	"fmt"
	"math/rand"

	"dve/internal/topology"
)

// HammerSpec parameterises an adversarial run: a victim workload with
// aggressor reads blended in.
type HammerSpec struct {
	// Victim is the workload under attack; its stream is generated
	// unchanged (aggressor ops are interleaved, never substituted, so
	// Intensity 0 reproduces the victim stream exactly).
	Victim Spec
	// Intensity is the fraction of issued operations that are aggressor
	// reads, in [0, 1). 0 disarms the aggressor entirely.
	Intensity float64
	// DoubleSided builds two interleaved ladders bracketing the hot victim
	// row (aggressor rows one above and one below), the classic
	// double-sided hammer.
	DoubleSided bool
	// Seed drives the per-thread aggressor/victim interleaving draws; it is
	// independent of the victim's Seed. Ladder placement is a pure function
	// of the victim stream, not of this seed.
	Seed int64
}

// probeOpsPerThread is how many victim operations per thread the placement
// probe replays to find the hottest shared row. The probe prefix is exactly
// what the real run will issue first, so the hot row is both hot and
// touched early.
const probeOpsPerThread = 256

// HammerSource implements the runner's OpSource: a victim generator plus
// the aggressor ladder. Like any external source it runs with the socket
// partitions on one worker (dve.RunConfig does not require sources to be
// concurrency-safe).
type HammerSource struct {
	victim    *Generator
	intensity float64
	ladder    []topology.Addr   // all groups, flattened (reporting/tests)
	groups    [][]topology.Addr // per-group eviction sets
	hotRow    topology.DRAMCoord
	hotSocket int

	rngs   []*rand.Rand
	cursor []int // per-thread position within the thread's group
}

// hotSharedRow replays a prefix of the victim stream and returns the
// (socket, coordinate) of its most-touched shared-region DRAM row. The
// private regions are excluded: shared rows are re-read by many threads, so
// a flip there exercises the full detection surface. Ties break on the
// first coordinate reached, which is deterministic because the replay is.
func hotSharedRow(spec Spec, amap *topology.AddrMap) (int, topology.DRAMCoord, error) {
	probe, err := NewGenerator(spec)
	if err != nil {
		return 0, topology.DRAMCoord{}, err
	}
	type hot struct {
		socket int
		co     topology.DRAMCoord
	}
	counts := make(map[hot]int)
	var best hot
	bestN := 0
	for i := 0; i < probeOpsPerThread; i++ {
		for t := 0; t < spec.Threads; t++ {
			op := probe.Next(t)
			if op.Kind == Barrier || uint64(op.Addr) >= privBase {
				continue
			}
			k := hot{amap.HomeSocket(op.Addr), amap.Decode(op.Addr)}
			// Keep both aggressor neighbours encodable: row 0/1 victims
			// would lose their lower aggressor.
			if k.co.Row < 2 {
				continue
			}
			counts[k]++
			if counts[k] > bestN {
				bestN = counts[k]
				best = k
			}
		}
	}
	if bestN == 0 {
		return 0, topology.DRAMCoord{}, fmt.Errorf("hammer: victim %q touches no shared rows in its probe prefix", spec.Name)
	}
	return best.socket, best.co, nil
}

// NewHammerSource builds the aggressor ladder for the machine configuration
// and wraps the victim generator.
func NewHammerSource(hs HammerSpec, cfg *topology.Config) (*HammerSource, error) {
	if hs.Intensity < 0 || hs.Intensity >= 1 {
		return nil, fmt.Errorf("hammer: intensity %v outside [0, 1)", hs.Intensity)
	}
	gen, err := NewGenerator(hs.Victim)
	if err != nil {
		return nil, err
	}
	h := &HammerSource{victim: gen, intensity: hs.Intensity}
	for t := 0; t < hs.Victim.Threads; t++ {
		h.rngs = append(h.rngs, rand.New(rand.NewSource(hs.Seed+int64(t)*15485863)))
	}
	if hs.Intensity == 0 {
		return h, nil
	}

	amap := topology.NewAddrMap(cfg)
	// Global byte distance between row r and row r+1 of the same bank and
	// channel: one row buffer per bank and channel, expanded by the socket
	// page interleave.
	rowStride := uint64(cfg.RowBufferBytes * cfg.BanksPerRank * cfg.ChannelsPerSkt * cfg.Sockets)
	setStride := uint64(cfg.LLCSizeBytes / cfg.LLCWays) // bytes between same-LLC-set lines
	if setStride%rowStride != 0 {
		return nil, fmt.Errorf("hammer: LLC set stride %d not a multiple of the row stride %d", setStride, rowStride)
	}
	rowHop := setStride / rowStride // rows between consecutive rungs of a group
	rungs := cfg.LLCWays + 1        // one more line than a set has ways
	nGroups := uint64(cfg.CoresPerSocket)
	// Group base rows must occupy distinct residues modulo the rung hop or
	// groups alias into each other's LLC sets and rows. Single-sided bases
	// (v+1 .. v+n) tolerate n = rowHop; the double-sided bracket
	// (v±1, v±2, ...) collides at offset ±rowHop/2, so it caps one lower.
	maxGroups := rowHop
	if hs.DoubleSided {
		maxGroups = rowHop - 1
	}
	if nGroups > maxGroups {
		nGroups = maxGroups
	}
	if nGroups == 0 {
		return nil, fmt.Errorf("hammer: row hop %d leaves no room for aggressor groups", rowHop)
	}

	socket, hotCo, err := hotSharedRow(hs.Victim, amap)
	if err != nil {
		return nil, err
	}
	h.hotSocket, h.hotRow = socket, hotCo

	rowsPerBank := uint64(cfg.MemPerSocketGiB) << 30 /
		uint64(cfg.RowBufferBytes*cfg.BanksPerRank*cfg.ChannelsPerSkt)
	if hotCo.Row+1+nGroups+uint64(rungs)*rowHop >= rowsPerBank {
		return nil, fmt.Errorf("hammer: ladder from row %d overruns the %d rows of a bank", hotCo.Row, rowsPerBank)
	}
	if hs.DoubleSided && hotCo.Row < nGroups+1 {
		// Not enough rows below the hot row for the lower bracket; hammer
		// from above only.
		hs.DoubleSided = false
	}

	// Group g's base aggressor row. Single-sided: rows v+1 .. v+nGroups,
	// a many-sided blast just above the hot victim row v (group 0's lower
	// victim row is exactly v). Double-sided: groups alternate sides so the
	// hot row is bracketed from both neighbours (groups 0 and 1 hammer v+1
	// and v-1; v sits between them).
	baseRow := func(g uint64) uint64 {
		if !hs.DoubleSided {
			return hotCo.Row + 1 + g
		}
		if g%2 == 0 {
			return hotCo.Row + 1 + g/2
		}
		return hotCo.Row - 1 - g/2
	}
	for g := uint64(0); g < nGroups; g++ {
		var grp []topology.Addr
		for k := 0; k < rungs; k++ {
			co := topology.DRAMCoord{Channel: hotCo.Channel, Bank: hotCo.Bank, Row: baseRow(g) + uint64(k)*rowHop}
			grp = append(grp, amap.Encode(socket, co, 0))
		}
		h.groups = append(h.groups, grp)
		h.ladder = append(h.ladder, grp...)
	}
	// Stagger same-group walkers on different sockets so they do not march
	// in phase (in the unreplicated machine both stream to one home
	// controller, where lockstep walkers would coalesce).
	for t := 0; t < hs.Victim.Threads; t++ {
		h.cursor = append(h.cursor, (t/int(nGroups)*7)%rungs)
	}
	// Sanity: the whole ladder must share one (channel, bank), with no row
	// repeated, or the activation guarantee (every access opens a new row)
	// breaks.
	first := amap.Decode(h.ladder[0])
	rows := make(map[uint64]bool, len(h.ladder))
	for _, a := range h.ladder {
		co := amap.Decode(a)
		if co.Channel != first.Channel || co.Bank != first.Bank {
			return nil, fmt.Errorf("hammer: ladder spans (ch %d, bank %d) and (ch %d, bank %d)",
				first.Channel, first.Bank, co.Channel, co.Bank)
		}
		if rows[co.Row] {
			return nil, fmt.Errorf("hammer: aggressor row %d appears twice", co.Row)
		}
		rows[co.Row] = true
	}
	return h, nil
}

// Next returns thread tid's next operation: an aggressor read with
// probability Intensity, otherwise the victim's next op. The aggressor draw
// uses its own per-thread RNG, so the victim substream is byte-identical to
// an unattacked run of the same spec. The thread walks its own group's
// eviction set cyclically (see the package comment for why groups are
// per-core).
func (h *HammerSource) Next(tid int) Op {
	if h.intensity > 0 && h.rngs[tid].Float64() < h.intensity {
		grp := h.groups[tid%len(h.groups)]
		a := grp[h.cursor[tid]]
		h.cursor[tid] = (h.cursor[tid] + 1) % len(grp)
		return Op{Kind: Read, Addr: a}
	}
	return h.victim.Next(tid)
}
