package ras

import (
	"fmt"

	"dve/internal/coherence"
	"dve/internal/fault"
	"dve/internal/topology"
)

// RowHammer closing of the loop: the memory controllers already count
// per-row activations and fire OnHammer at threshold crossings; this file
// turns a crossing into seeded bitflips in the physically adjacent victim
// rows and scores the replica + scrub/repair ladder as the defense —
// detection latency, corrupted reads served, and repair traffic.

// EvHammerFlip journals one bitflip injected into a hammered victim row.
const EvHammerFlip = "hammer-flip"

// HammerConfig arms disturbance-error injection for a run.
type HammerConfig struct {
	// FlipsPerRow caps how many victim-row lines flip per threshold
	// crossing (0 = default 4). Flips land only on lines the home
	// directory has tracked — cells some core actually read — so every
	// flip is observable by a demand read or patrol scrub; a crossing next
	// to untouched rows injects nothing.
	FlipsPerRow int
}

type flipKey struct {
	socket int
	line   topology.Line
}

type hammerFlip struct {
	id        fault.ID
	injectCyc uint64
	detected  bool
	// keys are the event identities this flip can surface under. A flipped
	// cell always answers home reads of its own line; on a replicated
	// machine the same cell may also hold the replica of its partner line
	// (the fixed-function map pairs page 2k with 2k+1), and replica-read
	// failures are reported against the partner line — same socket,
	// different line.
	keys []flipKey
}

// HammerState wires OnHammer crossings to fault injection and scores the
// defense ladder by observing the run's RAS events. A Prepare hook runs the
// socket partitions on one worker, so the bookkeeping needs no locking and
// is deterministic; a flip's inject and detect cycles are both read from
// its socket's partition clock.
type HammerState struct {
	sys         *coherence.System
	set         *fault.Set
	amap        *topology.AddrMap
	journal     func(Event)
	flipsPerRow int

	active map[flipKey]*hammerFlip

	// Crossings counts OnHammer firings; Flips the injected faults.
	Crossings, Flips uint64
}

func newHammerState(cfg HammerConfig, sys *coherence.System, set *fault.Set, journal func(Event)) *HammerState {
	fpr := cfg.FlipsPerRow
	if fpr <= 0 {
		fpr = 4
	}
	return &HammerState{
		sys:         sys,
		set:         set,
		amap:        sys.AMap,
		journal:     journal,
		flipsPerRow: fpr,
		active:      make(map[flipKey]*hammerFlip),
	}
}

// attach subscribes to every memory controller's OnHammer hook and wraps
// the system's RAS event stream with the defense scorer.
func (h *HammerState) attach() {
	for s, mc := range h.sys.MCs {
		s := s
		mc.OnHammer = func(co topology.DRAMCoord) { h.crossed(s, co) }
	}
	prev := h.sys.RASEvent
	h.sys.RASEvent = func(kind string, socket int, l topology.Line) {
		if prev != nil {
			prev(kind, socket, l)
		}
		h.observe(kind, socket, l)
	}
}

// crossed handles one threshold crossing: transient cell faults land in the
// adjacent victim rows, on cells whose contents some directory actually
// tracks (capped per row). A cell qualifies through either of its
// identities: the home copy of its own line, or — on replicated machines —
// the replica copy of its partner line (crossings on the replica-serving
// controller corrupt the second copy, which is how a determined attacker
// degrades Dvé from recovery to DUE). The faults are Transient, so the
// ladder's repair write — or any ordinary writeback of the line —
// genuinely heals the cell, which is exactly the defense under measurement.
func (h *HammerState) crossed(socket int, co topology.DRAMCoord) {
	h.Crossings++
	now := uint64(h.sys.Engs[socket].Now())
	cnt := h.sys.Cnts[socket]
	for _, vco := range topology.AdjacentRows(co) {
		injected := 0
		for slot := 0; slot < h.amap.RowLines() && injected < h.flipsPerRow; slot++ {
			a := h.amap.Encode(socket, vco, slot)
			l := h.amap.LineOf(a)
			var keys []flipKey
			if h.sys.Dirs[socket].HasLine(l) {
				keys = append(keys, flipKey{socket, l})
			}
			// The same cell may hold the replica of the partner line (the
			// page map is an involution): replica-read failures surface
			// against the partner line on this socket.
			if partner := h.amap.ReplicaLine(l); h.sys.HasReplica(partner) &&
				h.sys.Dirs[h.amap.HomeSocketLine(partner)].HasLine(partner) {
				keys = append(keys, flipKey{socket, partner})
			}
			if len(keys) == 0 {
				continue // cell holds nothing any core ever read
			}
			if fl, ok := h.active[keys[0]]; ok {
				if _, live := h.set.Get(fl.id); live {
					injected++ // still flipped from an earlier crossing
					continue
				}
				h.retire(fl)
			}
			id := h.set.Add(fault.Fault{
				Kind:      fault.Cell,
				Socket:    socket,
				Channel:   vco.Channel,
				Bank:      vco.Bank,
				Row:       vco.Row,
				Addr:      a,
				Transient: true,
			})
			fl := &hammerFlip{id: id, injectCyc: now, keys: keys}
			for _, k := range keys {
				h.active[k] = fl
			}
			h.Flips++
			cnt.HammerFlips++
			if h.journal != nil {
				h.journal(Event{
					Cycle:  now,
					Kind:   EvHammerFlip,
					Socket: socket,
					Line:   uint64(l),
					Detail: fmt.Sprintf("ch%d,bank%d,row%d", vco.Channel, vco.Bank, vco.Row),
				})
			}
			injected++
		}
	}
}

// retire drops every identity of a flip from the active map.
func (h *HammerState) retire(fl *hammerFlip) {
	for _, k := range fl.keys {
		delete(h.active, k)
	}
}

// observe scores the defense ladder from the RAS event stream:
//
//   - EvDetect on a flipped line: first detection closes the
//     inject-to-detect latency window.
//   - EvDUE on a flipped line while the flip is live: the machine served a
//     corrupted read (the unreplicated outcome, or both copies flipped).
//   - EvRepair while the flip is live: repair traffic the attack caused.
//   - EvRepairOK on a flipped line whose fault is gone: the ladder healed
//     the cell; the flip retires.
func (h *HammerState) observe(kind string, socket int, l topology.Line) {
	fl, ok := h.active[flipKey{socket, l}]
	if !ok {
		return
	}
	cnt := h.sys.Cnts[socket]
	_, live := h.set.Get(fl.id)
	switch kind {
	case coherence.EvDetect:
		if live && !fl.detected {
			fl.detected = true
			cnt.HammerDetected++
			cnt.HammerDetectLatency += uint64(h.sys.Engs[socket].Now()) - fl.injectCyc
		}
	case coherence.EvDUE:
		if live {
			cnt.HammerCorruptReads++
		}
	case coherence.EvRepair:
		// Repair traffic attributed to the attack: both the home ladder's
		// repair-write and the replica path's background copy-fix report
		// EvRepair while the flip is still in place.
		if live {
			cnt.HammerRepairs++
		}
	case coherence.EvRepairOK:
		if !live {
			h.retire(fl)
		}
	}
}
