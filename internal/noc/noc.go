// Package noc models the on-chip and inter-socket interconnect: a 2x4 mesh
// per socket with single-cycle hops and static shortest-path routing, and a
// point-to-point inter-socket link with configurable latency (Table II). The
// inter-socket link counts messages and bytes for the Fig 8 traffic analysis
// and models serialization so that bandwidth effects are visible.
package noc

import (
	"fmt"

	"dve/internal/sim"
	"dve/internal/telemetry"
)

// Message sizes in bytes: a control message carries an 8-byte header; a data
// message additionally carries a 64-byte cache line.
const (
	CtrlBytes = 8
	DataBytes = 72
)

// LinkBytesPerCycle is the inter-socket link bandwidth used for
// serialization: 16 bytes/cycle (~48 GB/s at 3 GHz, UPI-class).
const LinkBytesPerCycle = 16

// Mesh computes intra-socket distances between tiles of an R x C mesh.
// Tiles are numbered row-major. Cores occupy tiles 0..n-1; the LLC/directory
// "home" tile is the mesh center by convention.
type Mesh struct {
	rows, cols int
	hopCyc     int
}

// NewMesh returns a mesh with the given geometry and per-hop latency.
func NewMesh(rows, cols, hopCyc int) *Mesh {
	return &Mesh{rows: rows, cols: cols, hopCyc: hopCyc}
}

// Tiles returns the number of tiles in the mesh.
func (m *Mesh) Tiles() int { return m.rows * m.cols }

// Hops returns the Manhattan distance between two tiles (XY routing).
func (m *Mesh) Hops(a, b int) int {
	ar, ac := a/m.cols, a%m.cols
	br, bc := b/m.cols, b%m.cols
	dr, dc := ar-br, ac-bc
	if dr < 0 {
		dr = -dr
	}
	if dc < 0 {
		dc = -dc
	}
	return dr + dc
}

// Latency returns the cycles to traverse from tile a to tile b.
func (m *Mesh) Latency(a, b int) sim.Cycle {
	return sim.Cycle(m.Hops(a, b) * m.hopCyc)
}

// CoreTile returns the tile index for a core within its socket.
func (m *Mesh) CoreTile(core int) int { return core % m.Tiles() }

// HomeTile is the tile hosting the LLC slice/directory/memory controller.
func (m *Mesh) HomeTile() int { return m.Tiles() / 2 }

// Link is the inter-socket point-to-point interconnect. It is full duplex:
// each direction serializes independently. All sends are delivered; the link
// never drops or reorders within a direction ("all links are ordered").
//
// The link is partition-aware: it holds one engine per socket and, when the
// sockets run on separate partitions of a sim.ParallelEngine, routes every
// delivery through the cross-partition mailbox instead of scheduling on the
// destination engine directly. In the single-engine case both slots alias
// one engine and delivery degenerates to the classic direct schedule. The
// minimum one-way cost of any message is one serialization cycle plus the
// propagation latency, which is exactly the conservative lookahead window
// the parallel engine synchronizes on (see Link.MinLatency).
type Link struct {
	engs    [2]*sim.Engine
	pe      *sim.ParallelEngine
	latency sim.Cycle
	// nextFree[d] is the earliest cycle direction d (0: s0->s1, 1: s1->s0)
	// can start serializing a new message.
	nextFree [2]sim.Cycle

	// Traffic counters, split by sending socket so each partition's worker
	// touches only its own slot; Msgs/Bytes report the totals.
	msgs  [2]uint64
	bytes [2]uint64

	// Trace, when non-nil, records every message as a complete interval
	// [serialization start, delivery) on the sending socket's link track.
	// Per-direction starts are monotone (nextFree only advances), so the
	// track's timestamps are monotone by construction. A traced run
	// executes its partitions on one worker, so the shared tracer is never
	// written concurrently.
	Trace *telemetry.Tracer
}

// NewLink creates the inter-socket link. engs holds the per-socket engines
// (both slots may alias one engine for a serial run); pe, when non-nil, is
// the parallel engine whose mailbox carries cross-socket deliveries. The
// latency must be at least one cycle: a zero-latency link would make the
// lookahead window degenerate (and models no physical interconnect).
func NewLink(engs [2]*sim.Engine, pe *sim.ParallelEngine, latency sim.Cycle) (*Link, error) {
	if engs[0] == nil || engs[1] == nil {
		return nil, fmt.Errorf("noc: link needs an engine per socket")
	}
	if latency < 1 {
		return nil, fmt.Errorf("noc: link latency %d cycles is below the 1-cycle minimum", latency)
	}
	return &Link{engs: engs, pe: pe, latency: latency}, nil
}

// MinLatency returns the minimum sender-to-delivery distance of any message:
// one serialization cycle plus the propagation latency. This is the bound
// the parallel engine may use as its epoch lookahead window.
func (l *Link) MinLatency() sim.Cycle { return l.latency + 1 }

// deliveryTime reserves the src->dst direction for the message and returns
// its delivery cycle: serialization (bandwidth) + propagation latency, with
// per-direction queuing when the link is busy. Serialization is clamped to
// at least one cycle so every delivery respects MinLatency.
func (l *Link) deliveryTime(src, bytes int) sim.Cycle {
	dir := src & 1
	start := l.engs[dir].Now()
	if l.nextFree[dir] > start {
		start = l.nextFree[dir]
	}
	ser := sim.Cycle((bytes + LinkBytesPerCycle - 1) / LinkBytesPerCycle)
	if ser < 1 {
		ser = 1
	}
	l.nextFree[dir] = start + ser
	l.msgs[dir]++
	l.bytes[dir] += uint64(bytes)
	if l.Trace != nil {
		l.Trace.Complete(telemetry.CompLink, src, "xfer", "bytes", uint64(bytes),
			start, ser+l.latency)
	}
	return start + ser + l.latency
}

// Send transmits bytes from socket src to the other socket and invokes fn on
// delivery. Scheduling a prebuilt func() is allocation-free; callers that
// would otherwise build a closure per message can use SendFn instead.
func (l *Link) Send(src int, bytes int, fn func()) {
	when := l.deliveryTime(src, bytes)
	if l.pe != nil {
		l.pe.CrossAt(src&1, (src&1)^1, when, fn)
		return
	}
	l.engs[(src&1)^1].At(when, fn)
}

// SendFn is the typed fast path of Send: h(arg, v) runs on delivery. With a
// package-level Handler and a pooled (pointer-shaped) arg the whole send is
// allocation-free.
func (l *Link) SendFn(src, bytes int, h sim.Handler, arg any, v uint64) {
	when := l.deliveryTime(src, bytes)
	if l.pe != nil {
		l.pe.CrossAtFn(src&1, (src&1)^1, when, h, arg, v)
		return
	}
	l.engs[(src&1)^1].AtFn(when, h, arg, v)
}

// Msgs returns the total messages sent in both directions.
func (l *Link) Msgs() uint64 { return l.msgs[0] + l.msgs[1] }

// Bytes returns the total bytes sent in both directions.
func (l *Link) Bytes() uint64 { return l.bytes[0] + l.bytes[1] }

// Reset clears the traffic counters (the queue state is left alone).
func (l *Link) Reset() {
	l.msgs[0], l.msgs[1] = 0, 0
	l.bytes[0], l.bytes[1] = 0, 0
}

// ResetDir clears one sending direction's traffic counters. Partitioned
// runs reset each socket's direction from that socket's own partition when
// its region of interest starts.
func (l *Link) ResetDir(dir int) {
	l.msgs[dir&1], l.bytes[dir&1] = 0, 0
}
