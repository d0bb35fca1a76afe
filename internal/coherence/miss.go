package coherence

import (
	"dve/internal/noc"
	"dve/internal/sim"
	"dve/internal/telemetry"
	"dve/internal/topology"
)

// Miss carries one LLC miss through the global protocol, from its issue at
// the LLC to the fill: the home directory's GETS/GETX (or, for a Dvé
// replica-side miss, the replica agent's LocalGETS/LocalGETX and the home
// directory's ReplicaGETS/ReplicaGETX), their memory reads and their link
// crossings.
//
// Records are pooled per requester socket on the System, like accessReq: the
// LLC takes one on a miss and the fill returns it (LIFO reuse, so the
// allocation pattern is a pure function of the transaction order). Every
// continuation is a method value bound once, when the record is built, and
// captures only the record, so handing one to Engine.Schedule, Link.Send,
// Controller.Read or Sequencer.Do allocates nothing. Each continuation first
// checks that the record is live: one that runs on a recycled record panics
// instead of corrupting the miss that now owns it.
//
// A record that crosses the link is touched only on the partition it was
// delivered to. The one leg that runs beside another is the speculative
// replica read: it stays on the requester's partition and writes only its
// own fields while the home directory serves the rest of the miss. The
// record returns to the pool only once every leg it launched has landed, a
// squashed speculative read included.
type Miss struct {
	sys    *System
	socket int // requester socket: the pool the record belongs to
	missState
	on missFns
}

// missState is a record's per-miss state; recycling zeroes it.
type missState struct {
	live bool

	core     int
	write    bool
	line     topology.Line
	needData bool // S->M upgrades carry no data
	start    sim.Cycle
	span     telemetry.SpanID
	done     func() // the requester's grant, run at the fill

	// Home-directory leg.
	dir      *HomeDir
	e        *dirEntry
	release  func() // the home sequencer's release
	join     int    // GETX legs still out (memory read, remote invalidation)
	pushed   bool   // GETX pushed its invalidation or deny to the replica side
	owner    int    // the remote owner a 3-hop miss fetches from
	viaAgent bool   // that fetch goes through the owner's replica agent

	// Replica-agent leg.
	agentRelease func() // the replica agent's sequencer release
	next         func(*Miss)
	readNext     func(*Miss, bool)
	fromReplica  bool // the local replica supplied the data
	dataShipped  bool // the home grant carried data across the link
	region       bool // the home directory granted the coarse-grain region

	// Speculative replica read (Section V-C5), joined with the home grant:
	// the later of the two completes the miss.
	spec         bool // a speculative read was issued
	specDone     bool // it landed
	specWaiting  bool // the grant arrived first and waits for it
	specSquashed bool // the grant made it useless
	filled       bool // the fill ran

	stamps [NumHops]sim.Cycle
}

// missFns are a record's continuations, bound once per record.
type missFns struct {
	issue, toHome, back, deliver, memDone, legDone  func()
	remoteInv, lateInv, invAck, invBack             func()
	atOwner, ownerAck, ownerData                    func()
	toReplicaHome, toRegionHome, replicaReply       func()
	granted, runNext                                func()
	gets, getx, replicaGETS, replicaGETX, agentHeld func(release func())
	homeRead, replicaRead                           func(failed bool)
}

// Hop names a point a miss passes on its way from issue to fill. A record
// stamps the cycle at which it reached each hop; a zero stamp means the
// miss never passed it.
type Hop int

const (
	HopIssue    Hop = iota // the request left the LLC
	HopDir                 // the first directory held the line for it
	HopMemIssue            // its first memory read was issued
	HopMemDone             // that read answered (before any recovery)
	HopLinkOut             // it first left the requester's socket
	HopLinkBack            // its last message arrived back there
	HopFill                // the line filled the requester's LLC
	NumHops
)

func newMiss(s *System, socket int) *Miss {
	m := &Miss{sys: s, socket: socket}
	m.on = missFns{
		issue: m.issue, toHome: m.toHome, back: m.back,
		deliver: m.deliver, memDone: m.memDone, legDone: m.legDone,
		remoteInv: m.remoteInv, lateInv: m.lateInv,
		invAck: m.invAck, invBack: m.invBack,
		atOwner: m.atOwner, ownerAck: m.ownerAck, ownerData: m.ownerData,
		toReplicaHome: m.toReplicaHome, toRegionHome: m.toRegionHome,
		replicaReply: m.replicaReply,
		granted:      m.granted, runNext: m.runNext,
		gets: m.gets, getx: m.getx,
		replicaGETS: m.replicaGETS, replicaGETX: m.replicaGETX,
		agentHeld: m.agentHeld,
		homeRead:  m.homeRead, replicaRead: m.replicaRead,
	}
	return m
}

// takeMiss checks a record out of the socket's pool.
func (s *System) takeMiss(socket int) *Miss {
	var m *Miss
	pool := s.missFree[socket]
	if n := len(pool); n > 0 {
		m = pool[n-1]
		s.missFree[socket] = pool[:n-1]
	} else {
		m = newMiss(s, socket)
	}
	m.live = true
	return m
}

// recycle returns the record to its socket's pool.
func (m *Miss) recycle() {
	m.missState = missState{}
	m.sys.missFree[m.socket] = append(m.sys.missFree[m.socket], m)
}

// check panics if a continuation runs on a record that was recycled.
func (m *Miss) check() {
	if !m.live {
		panic("coherence: miss continuation ran on a recycled record")
	}
}

// mark stamps hop h with the clock of the socket the miss is at.
func (m *Miss) mark(h Hop, socket int) {
	m.stamps[h] = m.sys.Engs[socket].Now()
}

// markFirst stamps hop h unless the miss already passed it.
func (m *Miss) markFirst(h Hop, socket int) {
	if m.stamps[h] == 0 {
		m.mark(h, socket)
	}
}

// Line returns the missing line.
func (m *Miss) Line() topology.Line { return m.line }

// Write reports whether the miss asks for write permission.
func (m *Miss) Write() bool { return m.write }

// NeedData reports whether the requester needs the data (an S->M upgrade
// does not).
func (m *Miss) NeedData() bool { return m.needData }

// DataShipped reports whether the home directory's grant to a replica-side
// miss carried the data; without it the replica memory holds current data.
func (m *Miss) DataShipped() bool { return m.dataShipped }

// Start returns the cycle at which the LLC took the miss.
func (m *Miss) Start() sim.Cycle { return m.start }

// Stamp returns the cycle at which the miss reached hop h, 0 if it never
// did.
func (m *Miss) Stamp(h Hop) sim.Cycle { return m.stamps[h] }

// The replica agent drives its part of a miss through the methods below: it
// parks its next step on the record and hands the matching bound trampoline
// to the sequencer, the engine or the memory controller.

// Held parks step as the agent's transaction body and returns the body to
// pass to the agent's Sequencer.Do; step runs once the line is held, and
// AgentRelease then returns the sequencer's release.
func (m *Miss) Held(step func(*Miss)) func(release func()) {
	m.next = step
	return m.on.agentHeld
}

func (m *Miss) agentHeld(release func()) {
	m.check()
	m.agentRelease = release
	m.markFirst(HopDir, m.socket)
	m.next(m)
}

// AgentRelease returns the agent sequencer's release for this miss.
func (m *Miss) AgentRelease() func() { return m.agentRelease }

// Then parks step and returns the continuation that runs it, for an engine
// event on the requester's socket.
func (m *Miss) Then(step func(*Miss)) func() {
	m.next = step
	return m.on.runNext
}

func (m *Miss) runNext() {
	m.check()
	m.next(m)
}

// ReadThen parks step for a read of the requester's local memory and returns
// the read's callback.
func (m *Miss) ReadThen(step func(m *Miss, failed bool)) func(failed bool) {
	m.readNext = step
	m.markFirst(HopMemIssue, m.socket)
	return m.on.replicaRead
}

func (m *Miss) replicaRead(failed bool) {
	m.check()
	if !m.specSquashed {
		m.markFirst(HopMemDone, m.socket)
	}
	m.readNext(m, failed)
}

// SendHome sends a replica-side miss across the link to its home directory
// (ReplicaGETS or ReplicaGETX); step runs back at the requester when the
// grant arrives, with DataShipped set.
func (m *Miss) SendHome(step func(*Miss)) {
	m.next = step
	m.markFirst(HopLinkOut, m.socket)
	m.sys.Link.Send(m.socket, noc.CtrlBytes, m.on.toReplicaHome)
}

func (m *Miss) toReplicaHome() {
	m.check()
	d := m.sys.Dirs[m.sys.AMap.HomeSocketLine(m.line)]
	if m.write {
		d.ReplicaGETX(m)
	} else {
		d.ReplicaGETS(m)
	}
}

// AskRegion sends a coarse-grain region request for the miss's line across
// the link to its home directory (Section V-C5); step runs back at the
// requester when the answer arrives, with RegionGranted set.
func (m *Miss) AskRegion(step func(*Miss)) {
	m.next = step
	m.markFirst(HopLinkOut, m.socket)
	m.sys.Link.Send(m.socket, noc.CtrlBytes, m.on.toRegionHome)
}

func (m *Miss) toRegionHome() {
	m.check()
	cfg := m.sys.Cfg
	home := m.sys.AMap.HomeSocketLine(m.line)
	region := uint64(m.line) / uint64(cfg.RegionBytes)
	m.region = m.sys.Dirs[home].GrantRegion(topology.Line(region*uint64(cfg.RegionBytes)),
		cfg.RegionBytes/cfg.LineSizeBytes)
	m.sys.Link.Send(home, noc.CtrlBytes, m.on.granted)
}

// RegionGranted reports whether AskRegion's request was granted.
func (m *Miss) RegionGranted() bool { return m.region }

func (m *Miss) granted() {
	m.check()
	m.mark(HopLinkBack, m.socket)
	m.next(m)
}

// Complete fills a replica-side miss; fromReplica reports whether the local
// replica supplied the data. The record may be recycled when it returns.
func (m *Miss) Complete(fromReplica bool) {
	m.fromReplica = fromReplica
	m.finish()
}

// IssueSpec marks a speculative replica read issued for the miss: the
// record outlives the fill until the read lands.
func (m *Miss) IssueSpec() { m.spec = true }

// Spec reports whether a speculative read was issued for the miss.
func (m *Miss) Spec() bool { return m.spec }

// SquashSpec records that the grant made the speculative read useless: the
// miss completes without it, and its memory stamps are dropped.
func (m *Miss) SquashSpec() {
	m.specSquashed = true
	m.stamps[HopMemIssue], m.stamps[HopMemDone] = 0, 0
}

// AwaitSpec joins the grant with the speculative read: it reports whether
// the read already landed (the caller completes the miss now); otherwise
// the grant waits and SpecLanded releases it.
func (m *Miss) AwaitSpec() bool {
	if m.specDone {
		return true
	}
	m.specWaiting = true
	return false
}

// SpecLanded records the speculative read's landing and reports whether the
// grant was waiting for it (the caller completes the miss now). A squashed
// read that lands after the fill recycles the record instead.
func (m *Miss) SpecLanded() bool {
	if !m.spec || m.specDone {
		panic("coherence: speculative read landed with none in flight")
	}
	m.specDone = true
	if m.filled {
		m.recycle()
		return false
	}
	return m.specWaiting
}
