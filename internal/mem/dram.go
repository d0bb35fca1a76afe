// Package mem models the per-socket DRAM subsystem: memory controllers,
// channels, banks with open-page row buffers, and the DDR4-2400 timing from
// Table II. It supports the Intel-mirroring++ mode (replica on a second
// channel of the same controller with actively load-balanced reads) and
// exposes fault hooks so injected component failures surface as failed reads
// that Dvé recovers through the replica.
package mem

import (
	"dve/internal/cache"
	"dve/internal/sim"
	"dve/internal/telemetry"
	"dve/internal/topology"
)

// burstCycles is the data-bus occupancy of one 64-byte cache line transfer
// on a DDR4-2400 x64 channel (~3.3 ns) expressed in 3 GHz core cycles.
const burstCycles = 10

type bank struct {
	openRow  uint64
	hasOpen  bool
	nextFree sim.Cycle
}

type channel struct {
	banks []bank
	bus   sim.Cycle // earliest cycle the data bus is free
}

// Controller is one socket's memory controller.
type Controller struct {
	eng    *sim.Engine
	cfg    *topology.Config
	amap   *topology.AddrMap
	Socket int

	channels []*channel

	// Mirror enables Intel-mirroring++: channel 1 mirrors channel 0; reads
	// load-balance between the two, writes go to both.
	Mirror    bool
	mirrorRot int

	// FaultFn, when set, is consulted on every read: it returns true when
	// the local ECC check fails for the address (detected error). The
	// directory then diverts the request to the replica (Section V-B2).
	FaultFn func(a topology.Addr) bool

	// Timing derived from config (cycles).
	tCL, tRCD, tRP sim.Cycle

	// Refresh / row-hammer state (see refresh.go).
	refreshOn    bool
	refreshTicks uint64
	hammer       []cache.LineTable[uint64, uint32] // per channel, keyed by hammerKey

	// OnHammer, when set, fires the first time a row's activation count
	// crosses the hammer threshold within a refresh window (once per row
	// per window; the window clear re-arms it). The coordinate's Channel is
	// the channel that actually served the activation. Adversarial
	// campaigns subscribe here to inject bitflips into adjacent rows.
	OnHammer func(co topology.DRAMCoord)

	// dead marks a killed controller (socket-level RAS event): every read
	// fails its ECC check and writes are acknowledged but dropped.
	dead bool

	// Trace, when non-nil, records each access as a complete interval on
	// the socket's mem track. Intervals are stamped at issue time (ts =
	// now, dur = completion - now) rather than at bank start, because bank
	// start times regress across banks and would break per-track
	// timestamp monotonicity.
	Trace *telemetry.Tracer

	// Stats.
	Reads, Writes      uint64
	RowHits, RowMisses uint64
	FailedReads        uint64
	BusyCycles         uint64
	Refreshes          uint64
	HammeredRows       uint64
	DeadReads          uint64
	DroppedWrites      uint64
}

// Kill marks the controller dead: subsequent reads fail their local ECC
// check unconditionally and writes complete without landing, modeling the
// loss of a whole memory controller (the largest blast radius of Fig 2).
func (mc *Controller) Kill() { mc.dead = true }

// NewController builds the memory controller for a socket.
func NewController(eng *sim.Engine, cfg *topology.Config, amap *topology.AddrMap, socket int) *Controller {
	mc := &Controller{
		eng:    eng,
		cfg:    cfg,
		amap:   amap,
		Socket: socket,
		tCL:    sim.Cycle(cfg.Cycles(cfg.TCLns)),
		tRCD:   sim.Cycle(cfg.Cycles(cfg.TRCDns)),
		tRP:    sim.Cycle(cfg.Cycles(cfg.TRPns)),
	}
	for c := 0; c < cfg.ChannelsPerSkt; c++ {
		ch := &channel{banks: make([]bank, cfg.BanksPerRank)}
		mc.channels = append(mc.channels, ch)
	}
	return mc
}

// access performs the timing computation for one access on a channel and
// returns its completion cycle.
func (mc *Controller) access(chIdx int, co topology.DRAMCoord, isWrite bool) sim.Cycle {
	ch := mc.channels[chIdx]
	bk := &ch.banks[co.Bank]
	now := mc.eng.Now()

	start := now
	if bk.nextFree > start {
		start = bk.nextFree
	}

	var lat sim.Cycle
	if bk.hasOpen && bk.openRow == co.Row {
		lat = mc.tCL // row-buffer hit
		mc.RowHits++
	} else {
		if bk.hasOpen {
			lat = mc.tRP + mc.tRCD + mc.tCL // conflict: precharge + activate
		} else {
			lat = mc.tRCD + mc.tCL // closed: activate
		}
		mc.RowMisses++
		bk.openRow = co.Row
		bk.hasOpen = true
		mc.noteActivate(chIdx, co)
	}

	dataReady := start + lat
	// Serialize on the channel data bus.
	if ch.bus > dataReady {
		dataReady = ch.bus
	}
	done := dataReady + burstCycles
	ch.bus = done
	bk.nextFree = start + lat + burstCycles

	mc.BusyCycles += uint64(done - now)
	if isWrite {
		mc.Writes++
	} else {
		mc.Reads++
	}
	return done
}

// readReply adapts a read completion onto the engine's typed fast path:
// arg is the caller's func(failed bool) and v != 0 means the local ECC
// check failed. Func values are pointer-shaped, so scheduling this way
// allocates nothing per read.
func readReply(arg any, v uint64) { arg.(func(bool))(v != 0) }

// Read issues a DRAM read for the address and invokes fn when data (and its
// local ECC check) would be available. failed=true means the local ECC
// check detected an error it cannot correct, so the caller must recover via
// the replica.
func (mc *Controller) Read(a topology.Addr, fn func(failed bool)) {
	if mc.dead {
		// A dead controller answers with an error after the CAS latency; no
		// bank or bus is occupied.
		mc.DeadReads++
		mc.FailedReads++
		if mc.Trace != nil {
			mc.Trace.Complete(telemetry.CompMem, mc.Socket, "dram-read-dead",
				"addr", uint64(a), mc.eng.Now(), mc.tCL)
		}
		mc.eng.ScheduleFn(mc.tCL, readReply, fn, 1)
		return
	}
	co := mc.amap.Decode(a)
	ch := co.Channel
	if mc.Mirror {
		// Actively load-balance reads between the primary and mirror
		// channels — the "improved (hypothetical) version of Intel's memory
		// mirroring scheme" from Section VII.
		ch = mc.pickMirrorChannel(co)
	}
	done := mc.access(ch, co, false)
	failed := uint64(0)
	if mc.FaultFn != nil && mc.FaultFn(a) {
		failed = 1
		mc.FailedReads++
	}
	if mc.Trace != nil {
		now := mc.eng.Now()
		mc.Trace.Complete(telemetry.CompMem, mc.Socket, "dram-read",
			"addr", uint64(a), now, done-now)
	}
	mc.eng.AtFn(done, readReply, fn, failed)
}

// pickMirrorChannel chooses the mirror copy whose bank frees earliest.
func (mc *Controller) pickMirrorChannel(co topology.DRAMCoord) int {
	if len(mc.channels) < 2 {
		return 0
	}
	b0 := mc.channels[0].banks[co.Bank].nextFree
	b1 := mc.channels[1].banks[co.Bank].nextFree
	switch {
	case b0 < b1:
		return 0
	case b1 < b0:
		return 1
	default:
		mc.mirrorRot ^= 1
		return mc.mirrorRot
	}
}

// Write issues a DRAM write and invokes fn at completion. In mirror mode the
// write is performed on both channels and completes when both finish.
func (mc *Controller) Write(a topology.Addr, fn func()) {
	if mc.dead {
		mc.DroppedWrites++
		if mc.Trace != nil {
			mc.Trace.Complete(telemetry.CompMem, mc.Socket, "dram-write-dropped",
				"addr", uint64(a), mc.eng.Now(), mc.tCL)
		}
		mc.eng.Schedule(mc.tCL, fn)
		return
	}
	co := mc.amap.Decode(a)
	if mc.Mirror && len(mc.channels) >= 2 {
		d0 := mc.access(0, co, true)
		d1 := mc.access(1, co, true)
		done := d0
		if d1 > done {
			done = d1
		}
		if mc.Trace != nil {
			now := mc.eng.Now()
			mc.Trace.Complete(telemetry.CompMem, mc.Socket, "dram-write",
				"addr", uint64(a), now, done-now)
		}
		mc.eng.At(done, fn)
		return
	}
	done := mc.access(co.Channel, co, true)
	if mc.Trace != nil {
		now := mc.eng.Now()
		mc.Trace.Complete(telemetry.CompMem, mc.Socket, "dram-write",
			"addr", uint64(a), now, done-now)
	}
	mc.eng.At(done, fn)
}

// ResetStats zeroes the counters (bank state is preserved).
func (mc *Controller) ResetStats() {
	mc.Reads, mc.Writes = 0, 0
	mc.RowHits, mc.RowMisses = 0, 0
	mc.FailedReads, mc.BusyCycles = 0, 0
}
