package coherence

import (
	"dve/internal/cache"
	"dve/internal/noc"
	"dve/internal/sim"
	"dve/internal/telemetry"
	"dve/internal/topology"
)

// dirEntry is the global directory state for one line. Sharers are tracked
// at socket granularity (Table II: "coarse-grain (sockets) sharing vector"):
// index h is the home socket's LLC; index r is the remote agent — the remote
// LLC in the baseline, or the Dvé replica directory.
type dirEntry struct {
	state   cache.State // I, S, M, O
	sharers [2]bool
	owner   int8 // owning socket agent when M/O; -1 otherwise
}

// Directory entries are stored by value in fixed-size slabs: transactions
// hold *dirEntry across scheduling boundaries, so storage must never move
// (a single growable slice would reallocate under them), and slab-backed
// values avoid one heap object per tracked line.
const (
	dirSlabBits = 12
	dirSlabSize = 1 << dirSlabBits
	dirSlabMask = dirSlabSize - 1
)

// HomeDir is the global directory co-located with one socket's memory
// controller. It is the serialization point for all transactions on lines
// homed at this socket; concurrent requests for a line are serialized and
// coalesced in the MSHR (Section V-C3).
type HomeDir struct {
	sys    *System
	socket int
	// lineOrder lists tracked lines in first-touch order (for the patrol
	// scrubber's deterministic walk); entries indexes it. The line at
	// position i of lineOrder has its entry in slab slot i.
	lineOrder []topology.Line
	entries   cache.LineIndex[topology.Line]
	slabs     [][]dirEntry
	sequencer *cache.Sequencer

	// degraded marks lines whose home copy suffered a hard fault; their
	// reads are funneled to the replica ("the system is placed in a degraded
	// state with only one working copy", Section V-B2).
	degraded map[topology.Line]bool
	// repairFails counts consecutive failed repair-verify re-reads per
	// line; reaching retireAfterRepairFails triggers page retirement.
	repairFails map[topology.Line]int
}

// Escalation-ladder tuning (Section V-B2 operationalised): a detected error
// is retried locally with doubling backoff (transients often clear), then
// recovered from the replica, then repaired in place and verified; a line
// whose repairs keep failing retires its page and degrades to single-copy
// service.
const (
	readRetryMax           = 2  // local re-reads before replica recovery
	retryBackoffCyc        = 16 // backoff before the first re-read; doubles
	retireAfterRepairFails = 2  // failed repair-verifies before retirement
)

func newHomeDir(s *System, socket int) *HomeDir {
	// The fault-path maps stay small (they only hold lines that ever
	// failed), so their hint is a fraction of the socket's share of the
	// footprint. The entry index starts empty and doubles as lines arrive:
	// a run touches a small part of its footprint, and an index sized for
	// all of it costs more to allocate and page in than the growth does.
	hint := s.Cfg.FootprintHintLines / s.Cfg.Sockets
	return &HomeDir{
		sys:         s,
		socket:      socket,
		entries:     cache.NewLineIndex[topology.Line](0),
		sequencer:   cache.NewSequencer(s.Engs[socket], sim.Cycle(s.Cfg.DirLatencyCyc), telemetry.CompHomeDir, socket),
		degraded:    make(map[topology.Line]bool, hint/64),
		repairFails: make(map[topology.Line]int, hint/64),
	}
}

// at returns the entry in slab slot i.
func (d *HomeDir) at(i int) *dirEntry {
	return &d.slabs[i>>dirSlabBits][i&dirSlabMask]
}

func (d *HomeDir) entry(l topology.Line) *dirEntry {
	n := len(d.lineOrder)
	if i, added := d.entries.Insert(d.lineOrder, l, n); !added {
		return d.at(i)
	}
	d.lineOrder = append(d.lineOrder, l)
	if n>>dirSlabBits == len(d.slabs) {
		d.slabs = append(d.slabs, make([]dirEntry, 0, dirSlabSize))
	}
	sl := &d.slabs[n>>dirSlabBits]
	*sl = append(*sl, dirEntry{state: cache.Invalid, owner: -1})
	return &(*sl)[n&dirSlabMask]
}

// Entry returns a copy of the directory entry for tests and the oracular
// replica directory (which consults home state with oracle knowledge).
func (d *HomeDir) Entry(l topology.Line) (state cache.State, owner int, sharers [2]bool) {
	i := d.entries.Find(d.lineOrder, l)
	if i < 0 {
		return cache.Invalid, -1, [2]bool{}
	}
	e := d.at(i)
	return e.state, int(e.owner), e.sharers
}

// HasLine reports whether the directory has ever tracked the line — i.e.
// some core actually touched it. Adversarial campaigns prefer placing
// victim-row bitflips on tracked lines so the flips are observable by
// demand reads instead of rotting on never-read addresses.
func (d *HomeDir) HasLine(l topology.Line) bool {
	return d.entries.Find(d.lineOrder, l) >= 0
}

// classify records the Fig 7 sharing-pattern class of a request.
func (d *HomeDir) classify(write bool, st cache.State) {
	if !d.sys.Classify {
		return
	}
	c := d.sys.Cnts[d.socket]
	switch {
	case !write && st == cache.Invalid:
		c.PrivateRead++
	case !write && st == cache.Shared:
		c.ReadOnly++
	case write && st == cache.Invalid:
		c.PrivateReadWrite++
	default:
		c.ReadWrite++
	}
}

// replicaAgent returns the replica directory on the opposite socket, nil in
// non-replicated configurations.
func (d *HomeDir) replicaAgent() ReplicaAgent {
	return d.sys.Replicas[d.remoteSocket()]
}

func (d *HomeDir) remoteSocket() int { return (d.socket + 1) % d.sys.Cfg.Sockets }

// readHomeMem reads the line from home memory, climbing the recovery
// escalation ladder when the local ECC check fails (Section V-B2): local
// re-read retries with doubling backoff, then replica recovery, then a
// repair-write-then-verify, then page retirement when the line keeps
// failing. cb runs at the home directory when data is available (or the
// error was logged as DUE).
func (d *HomeDir) readHomeMem(l topology.Line, cb func()) {
	if d.readDegraded(l, cb) {
		return
	}
	d.sys.MCs[d.socket].Read(topology.Addr(l), func(failed bool) {
		d.homeReadDone(l, failed, cb)
	})
}

// readHomeMiss is readHomeMem for a miss: the first read answers on the
// record's bound continuation, and the data goes to m.memDone.
func (d *HomeDir) readHomeMiss(m *Miss) {
	if d.readDegraded(m.line, m.on.memDone) {
		return
	}
	m.markFirst(HopMemIssue, d.socket)
	d.sys.MCs[d.socket].Read(topology.Addr(m.line), m.on.homeRead)
}

func (m *Miss) homeRead(failed bool) {
	m.check()
	m.mark(HopMemDone, m.dir.socket)
	m.dir.homeReadDone(m.line, failed, m.on.memDone)
}

// readDegraded counts a home read and, when the line is degraded, funnels
// it straight to the single working copy; it reports whether it did.
func (d *HomeDir) readDegraded(l topology.Line, cb func()) bool {
	cnt := d.sys.Cnts[d.socket]
	cnt.HomeReads++
	if !d.degraded[l] || !d.sys.HasReplica(l) {
		return false
	}
	cnt.DegradedReads++
	d.readFromReplicaMem(l, func(ok bool) {
		if !ok {
			cnt.DetectedUncorrect++
			d.sys.ReportRAS(EvDUE, d.socket, l)
		}
		cb()
	})
	return true
}

// homeReadDone handles the first home read's answer: cb runs now, or after
// the ladder when the local ECC check failed.
func (d *HomeDir) homeReadDone(l topology.Line, failed bool, cb func()) {
	if !failed {
		cb()
		return
	}
	d.sys.ReportRAS(EvDetect, d.socket, l)
	d.retryRead(l, 0, retryBackoffCyc, cb)
}

// retryRead is ladder rung 1: re-read the home copy up to readRetryMax
// times with doubling backoff. Transient and intermittent errors often
// clear here without touching the replica.
func (d *HomeDir) retryRead(l topology.Line, attempt int, backoff sim.Cycle, cb func()) {
	cnt := d.sys.Cnts[d.socket]
	if attempt >= readRetryMax {
		d.recoverViaReplica(l, cb)
		return
	}
	cnt.RetriedReads++
	d.sys.ReportRAS(EvRetry, d.socket, l)
	d.sys.Engs[d.socket].Schedule(backoff, func() {
		d.sys.MCs[d.socket].Read(topology.Addr(l), func(failed bool) {
			if !failed {
				cnt.RetrySuccesses++
				d.sys.ReportRAS(EvRetryOK, d.socket, l)
				cb()
				return
			}
			d.retryRead(l, attempt+1, backoff*2, cb)
		})
	})
}

// recoverViaReplica is ladder rung 2: fetch the data from the replica on
// the other socket, then kick off the in-place repair (rung 3) in the
// background. Without a replica the error is a DUE.
func (d *HomeDir) recoverViaReplica(l topology.Line, cb func()) {
	cnt := d.sys.Cnts[d.socket]
	if !d.sys.HasReplica(l) {
		// No second basket: detected but uncorrectable.
		cnt.DetectedUncorrect++
		d.sys.ReportRAS(EvDUE, d.socket, l)
		cb()
		return
	}
	d.readFromReplicaMem(l, func(ok bool) {
		if !ok {
			// Both copies failed: data lost, machine check (DUE).
			cnt.DetectedUncorrect++
			d.sys.ReportRAS(EvDUE, d.socket, l)
			cb()
			return
		}
		cnt.CorrectedErrors++
		cnt.Recoveries++
		d.sys.ReportRAS(EvRecover, d.socket, l)
		d.repairHome(l)
		cb()
	})
}

// repairHome is ladder rung 3: write the recovered data over the failed
// home location and verify with a re-read. Persistent failures climb to
// rung 4: page retirement via the RMT, and line-level degradation so later
// reads go straight to the surviving copy. Runs in the background — the
// demand read has already completed from the replica.
func (d *HomeDir) repairHome(l topology.Line) {
	a := topology.Addr(l)
	cnt := d.sys.Cnts[d.socket]
	cnt.RepairWrites++
	d.sys.ReportRAS(EvRepair, d.socket, l)
	d.sys.MCs[d.socket].Write(a, func() {
		// The write lands known-good data: transient faults clear.
		d.sys.ReportRepair(d.socket, a)
		d.sys.MCs[d.socket].Read(a, func(stillBad bool) {
			if !stillBad {
				d.sys.ReportRAS(EvRepairOK, d.socket, l)
				delete(d.repairFails, l)
				return
			}
			cnt.RepairVerifyFails++
			d.sys.ReportRAS(EvRepairFail, d.socket, l)
			d.repairFails[l]++
			if d.repairFails[l] < retireAfterRepairFails {
				return
			}
			// Rung 4: the fault hardened. Retire the page and serve the
			// line from the replica from now on.
			if d.sys.RetireFn != nil && d.sys.RetireFn(l) {
				cnt.PagesRetired++
				d.sys.ReportRAS(EvRetire, d.socket, l)
			}
			if !d.degraded[l] {
				d.degraded[l] = true
				cnt.DegradedLines++
				d.sys.ReportRAS(EvDegraded, d.socket, l)
			}
		})
	})
}

// readFromReplicaMem reads the replica copy on the other socket, paying the
// link both ways. ok=false when the replica read also fails.
func (d *HomeDir) readFromReplicaMem(l topology.Line, cb func(ok bool)) {
	ra, ok := d.sys.ReplicaAddrOf(l)
	if !ok {
		cb(false)
		return
	}
	r := d.remoteSocket()
	d.sys.Link.Send(d.socket, noc.CtrlBytes, func() {
		d.sys.MCs[r].Read(ra, func(failed bool) {
			d.sys.Link.Send(r, noc.DataBytes, func() { cb(!failed) })
		})
	})
}

// dualWriteback writes dirty data to both the home memory and the replica
// memory (Section V-B1). The replica write is posted: done may only fire on
// the home partition, so it follows the home write alone; the replica leg
// completes behind the FIFO link, which still orders it ahead of any later
// home-side transaction that could observe the replica copy (such a
// transaction pays the same link crossing).
func (d *HomeDir) dualWriteback(l topology.Line, undeny bool, done func()) {
	ra, ok := d.sys.ReplicaAddrOf(l)
	if !ok {
		d.sys.MCs[d.socket].Write(topology.Addr(l), done)
		return
	}
	d.sys.Cnts[d.socket].DualWritebacks++
	r := d.remoteSocket()
	d.sys.MCs[d.socket].Write(topology.Addr(l), done)
	d.sys.ReportRepair(d.socket, topology.Addr(l))
	d.sys.Link.Send(d.socket, noc.DataBytes, func() {
		if undeny {
			if a := d.replicaAgent(); a != nil {
				a.HomeUndeny(l)
			}
		}
		d.sys.MCs[r].Write(ra, func() {})
		d.sys.ReportRepair(r, ra)
	})
}

// probeLat is the latency of probing a co-located LLC.
func (d *HomeDir) probeLat() sim.Cycle { return sim.Cycle(d.sys.Cfg.LLCLatencyCyc) }

// GETS handles a read miss from an LLC (the home socket's own LLC, or a
// remote LLC in the baseline — replica-side misses in Dvé come through
// ReplicaGETS). The miss fills at its requester when data is there.
func (d *HomeDir) GETS(m *Miss) {
	m.dir = d
	d.sequencer.Do("GETS", m.line, m.on.gets)
}

// gets is GETS's body, run once the line is held.
func (m *Miss) gets(release func()) {
	m.check()
	d, l, src := m.dir, m.line, m.socket
	m.release = release
	m.markFirst(HopDir, d.socket)
	e := d.entry(l)
	m.e = e
	d.classify(false, e.state)
	switch {
	case e.state == cache.Invalid || e.state == cache.Shared:
		e.state = cache.Shared
		e.sharers[src] = true
		d.readHomeMiss(m)

	case int(e.owner) == src:
		// Degenerate (stale writeback race): serve from memory.
		d.readHomeMiss(m)

	case int(e.owner) == d.socket:
		// Home LLC owns it; requester is a remote baseline LLC.
		d.sys.LLCs[d.socket].Probe(l, false) // M -> O downgrade
		e.state = cache.Owned
		e.sharers[src] = true
		e.sharers[d.socket] = true
		d.sys.Engs[d.socket].Schedule(d.probeLat(), m.on.deliver)

	default:
		// Remote side owns it; requester is the home LLC.
		m.fetchFromOwner()
	}
}

// memDone runs when the home memory read has the data.
func (m *Miss) memDone() {
	m.check()
	if m.write {
		m.legDone()
		return
	}
	m.deliver()
}

// deliver sends the grant to the requester and frees the line.
func (m *Miss) deliver() {
	m.check()
	d, release := m.dir, m.release
	if m.socket == d.socket {
		// Fill synchronously, then release: the requester's LLC fill must
		// land before the MSHR frees, or an already-queued same-line
		// transaction runs between release and fill, probes the LLC
		// pre-fill, and the fill then resurrects a stale copy (SWMR
		// violation). Remote requesters are safe without this: the FIFO
		// link orders their fill ahead of any later probe.
		m.finish()
		release()
		return
	}
	bytes := noc.DataBytes
	if m.write && !m.needData {
		bytes = noc.CtrlBytes
	}
	d.sys.Link.Send(d.socket, bytes, m.on.back)
	release()
}

// fetchFromOwner serves a home-socket miss for a line the remote side owns:
// a Dvé replica agent fetches it for the home (the owner LLC downgrades or
// invalidates and, for a read, the data updates both memories); in the
// baseline the home probes the remote owner LLC directly. Either way the
// data crosses the link back to the requester at home.
func (m *Miss) fetchFromOwner() {
	d := m.dir
	m.owner = int(m.e.owner)
	m.viaAgent = d.sys.Replicas[m.owner] != nil && d.sys.HasReplica(m.line)
	m.markFirst(HopLinkOut, d.socket)
	d.sys.Link.Send(d.socket, noc.CtrlBytes, m.on.atOwner)
}

// atOwner runs at the owner after the link crossing, so the probe delay
// belongs to the owner's partition. A write's fetch (invalidate=true) also
// installs RM under the deny protocol: the home side is taking exclusive
// access.
func (m *Miss) atOwner() {
	m.check()
	if m.viaAgent {
		m.sys.Replicas[m.owner].HomeFetch(m.line, m.write, m.on.ownerAck)
		return
	}
	m.sys.LLCs[m.owner].Probe(m.line, m.write)
	m.sys.Engs[m.owner].Schedule(m.dir.probeLat(), m.on.ownerAck)
}

func (m *Miss) ownerAck() {
	m.check()
	m.sys.Link.Send(m.owner, noc.DataBytes, m.on.ownerData)
}

// ownerData is the owner's data arriving at home.
func (m *Miss) ownerData() {
	m.check()
	d, e := m.dir, m.e
	m.mark(HopLinkBack, d.socket)
	switch {
	case m.write:
		m.grant()
	case m.viaAgent:
		d.sys.MCs[d.socket].Write(topology.Addr(m.line), func() {})
		e.state = cache.Shared
		e.owner = -1
		e.sharers[d.socket] = true
		e.sharers[m.owner] = true
	default:
		// Baseline: the remote owner went M -> O.
		e.state = cache.Owned
		e.sharers[d.socket] = true
	}
	release := m.release
	m.finish() // home-socket requester: fill before release
	release()
}

// GETX handles a write (exclusive) miss from an LLC. The miss fills at its
// requester when write permission (and data, if needData) is there.
func (d *HomeDir) GETX(m *Miss) {
	m.dir = d
	d.sequencer.Do("GETX", m.line, m.on.getx)
}

// getx is GETX's body, run once the line is held.
func (m *Miss) getx(release func()) {
	m.check()
	d, l, src := m.dir, m.line, m.socket
	m.release = release
	m.markFirst(HopDir, d.socket)
	e := d.entry(l)
	m.e = e
	d.classify(true, e.state)
	agent := d.replicaAgent()
	denyPush := false
	if src == d.socket && agent != nil && d.sys.HasReplica(l) {
		// Dvé: the replica directory must be told before the home side
		// writes. Allow protocol: only when the replica directory holds
		// the line (it is a registered sharer). Deny protocol: always —
		// absence of an entry means the replica is readable, so the deny
		// must be pushed eagerly (Section V-C2).
		denyPush = e.sharers[d.remoteSocket()] || agent.DenyMode()
	}

	switch {
	case e.state == cache.Invalid || e.state == cache.Shared,
		int(e.owner) == src:
		// Fresh grant, upgrade from S, or an O->M upgrade by the owner
		// itself (dirty-shared line being written again): invalidate
		// every other sharer, push the deny if needed, and read memory
		// in parallel; grant when everything completes. An owner
		// already holds current data, so no memory read is needed.
		if int(e.owner) == src {
			m.needData = false
		}
		remote := d.remoteSocket()
		needRemoteInv := denyPush ||
			(e.sharers[remote] && src != remote)
		needHomeInv := e.sharers[d.socket] && src != d.socket

		m.join = 1 // memory/data leg
		if needRemoteInv {
			m.join++
		}
		m.pushed = needRemoteInv
		if needHomeInv {
			// Local probe: latency folded into the directory access.
			d.sys.LLCs[d.socket].Probe(l, true)
		}
		if needRemoteInv {
			m.markFirst(HopLinkOut, d.socket)
			d.sys.Link.Send(d.socket, noc.CtrlBytes, m.on.remoteInv)
		}
		if m.needData {
			d.readHomeMiss(m)
		} else {
			d.sys.Engs[d.socket].Schedule(0, m.on.legDone)
		}

	case int(e.owner) == d.socket:
		// Home LLC owns; requester is a remote baseline LLC.
		d.sys.LLCs[d.socket].Probe(l, true)
		m.grant()
		d.sys.Engs[d.socket].Schedule(d.probeLat(), m.on.deliver)

	default:
		// Remote side owns; requester is the home LLC.
		m.fetchFromOwner()
	}
}

// remoteInv runs on the remote side after the link crossing: the replica
// agent invalidates (allow) or installs the deny (deny); without one the
// remote baseline LLC is probed directly.
func (m *Miss) remoteInv() {
	m.check()
	d := m.dir
	if a := d.replicaAgent(); a != nil && d.sys.HasReplica(m.line) {
		a.HomeInvalidate(m.line, m.on.invAck)
		return
	}
	remote := d.remoteSocket()
	d.sys.LLCs[remote].Probe(m.line, true)
	d.sys.Engs[remote].Schedule(d.probeLat(), m.on.invAck)
}

// lateInv is the deny push a mode switch made necessary mid-transaction.
func (m *Miss) lateInv() {
	m.check()
	m.dir.replicaAgent().HomeInvalidate(m.line, m.on.invAck)
}

func (m *Miss) invAck() {
	m.check()
	m.sys.Link.Send(m.dir.remoteSocket(), noc.CtrlBytes, m.on.invBack)
}

// invBack is the invalidation ack arriving at home.
func (m *Miss) invBack() {
	m.check()
	m.mark(HopLinkBack, m.dir.socket)
	m.legDone()
}

// legDone joins GETX's legs: the grant goes out when the last one is in.
func (m *Miss) legDone() {
	m.check()
	m.join--
	if m.join != 0 {
		return
	}
	d := m.dir
	// The dynamic protocol can switch families while this transaction is
	// in flight: re-check at grant time and push the deny now if the new
	// mode requires one (otherwise a freshly deny-mode replica directory
	// would keep serving a line the home side is about to write).
	if m.socket == d.socket && !m.pushed {
		if a := d.replicaAgent(); a != nil && d.sys.HasReplica(m.line) && a.DenyMode() {
			m.pushed = true
			m.join = 1
			m.markFirst(HopLinkOut, d.socket)
			d.sys.Link.Send(d.socket, noc.CtrlBytes, m.on.lateInv)
			return
		}
	}
	m.grant()
	m.deliver()
}

// grant makes the requester the line's exclusive owner.
func (m *Miss) grant() {
	e := m.e
	e.state = cache.Modified
	e.owner = int8(m.socket)
	e.sharers = [2]bool{}
	e.sharers[m.socket] = true
}

// PUTM handles a dirty writeback from an LLC. In replicated configurations
// the data is written to both memories synchronously; under the deny
// protocol the replica directory's RM entry is cleared once the replica
// write is on its way (Section V-C2).
func (d *HomeDir) PUTM(src int, l topology.Line, done func()) {
	d.sequencer.Do("PUTM", l, func(release func()) {
		e := d.entry(l)
		if int(e.owner) != src {
			// Ownership already migrated (race with a fetch): drop.
			release()
			done()
			return
		}
		if e.state == cache.Owned {
			e.state = cache.Shared
		} else {
			e.state = cache.Invalid
			e.sharers = [2]bool{}
		}
		e.owner = -1
		e.sharers[src] = false
		fin := func() {
			release()
			done()
		}
		if d.sys.HasReplica(l) {
			d.dualWriteback(l, true, fin)
		} else {
			d.sys.MCs[d.socket].Write(topology.Addr(l), fin)
		}
	})
}

// GrantRegion attempts a coarse-grain grant (Section V-C5): if no line of
// the region is currently writable on the home side, the replica directory
// is registered as a sharer of every line and true is returned. The check is
// immediate (the caller pays the link round trip).
func (d *HomeDir) GrantRegion(base topology.Line, nLines int) bool {
	r := d.remoteSocket()
	step := topology.Line(d.sys.Cfg.LineSizeBytes)
	for i := 0; i < nLines; i++ {
		l := base + topology.Line(i)*step
		if idx := d.entries.Find(d.lineOrder, l); idx >= 0 {
			e := d.at(idx)
			if (e.state == cache.Modified || e.state == cache.Owned) && int(e.owner) == d.socket {
				return false
			}
		}
	}
	for i := 0; i < nLines; i++ {
		e := d.entry(base + topology.Line(i)*step)
		e.sharers[r] = true
	}
	return true
}

// OracleAddSharer registers the replica directory as a sharer with oracle
// knowledge (zero latency), used by the oracular allow scheme of Fig 9 so
// that later exclusive requests still pay the unavoidable invalidation.
func (d *HomeDir) OracleAddSharer(l topology.Line, socket int) {
	e := d.entry(l)
	e.sharers[socket] = true
	if e.state == cache.Invalid {
		e.state = cache.Shared
	}
}

// LinesOwnedBy returns the lines currently owned (M/O) by the given socket
// agent; the dynamic protocol's warmup uses it to rebuild the deny set.
// Iterating lineOrder (first-touch order) keeps the result — and every deny
// push scheduled from it — deterministic.
func (d *HomeDir) LinesOwnedBy(socket int) []topology.Line {
	var out []topology.Line
	for i, l := range d.lineOrder {
		e := d.at(i)
		if (e.state == cache.Modified || e.state == cache.Owned) && int(e.owner) == socket {
			out = append(out, l)
		}
	}
	return out
}

// ReplicaGETS handles a read miss forwarded by the replica directory for a
// line it could not serve locally (allow: no entry; deny: RM). The grant
// runs the agent's parked step back at the replica directory; DataShipped
// false means only a control grant crossed the link and the replica memory
// holds current data.
func (d *HomeDir) ReplicaGETS(m *Miss) {
	m.dir = d
	d.sequencer.Do("ReplicaGETS", m.line, m.on.replicaGETS)
}

func (m *Miss) replicaGETS(release func()) {
	m.check()
	d, l := m.dir, m.line
	e := d.entry(l)
	r := d.remoteSocket()
	switch {
	case e.state == cache.Invalid || e.state == cache.Shared,
		int(e.owner) == r:
		e.state = cache.Shared
		e.sharers[r] = true
		// Replica memory is current: control-only grant.
		d.sys.Link.Send(d.socket, noc.CtrlBytes, m.on.granted)
		release()
	default:
		// Home LLC holds it dirty: downgrade, dual writeback; the data
		// message to the replica directory doubles as the replica
		// update.
		d.sys.LLCs[d.socket].Downgrade(l)
		e.state = cache.Shared
		e.owner = -1
		e.sharers[d.socket] = true
		e.sharers[r] = true
		d.sys.MCs[d.socket].Write(topology.Addr(l), func() {})
		d.sys.Cnts[d.socket].DualWritebacks++
		m.release, m.dataShipped = release, true
		d.sys.Engs[d.socket].Schedule(d.probeLat(), m.on.replicaReply)
	}
}

// ReplicaGETX handles an exclusive miss forwarded by the replica directory.
// On a control-only grant the replica directory supplies data from the
// local replica memory.
func (d *HomeDir) ReplicaGETX(m *Miss) {
	m.dir = d
	d.sequencer.Do("ReplicaGETX", m.line, m.on.replicaGETX)
}

func (m *Miss) replicaGETX(release func()) {
	m.check()
	d, l := m.dir, m.line
	e := d.entry(l)
	m.e = e
	switch {
	case e.state == cache.Invalid,
		e.state == cache.Shared && !e.sharers[d.socket],
		int(e.owner) == d.remoteSocket():
		m.grant()
		d.sys.Link.Send(d.socket, noc.CtrlBytes, m.on.granted)
		release()
	case e.state == cache.Shared:
		// Invalidate the home LLC sharer, then control grant.
		d.sys.LLCs[d.socket].Probe(l, true)
		m.grant()
		m.release = release
		d.sys.Engs[d.socket].Schedule(d.probeLat(), m.on.replicaReply)
	default:
		// Home LLC owns it dirty: invalidate + fetch; ship data.
		d.sys.LLCs[d.socket].Probe(l, true)
		m.grant()
		m.release, m.dataShipped = release, true
		d.sys.Engs[d.socket].Schedule(d.probeLat(), m.on.replicaReply)
	}
}

// replicaReply sends a ReplicaGETS/ReplicaGETX grant after the home LLC
// probe and frees the line.
func (m *Miss) replicaReply() {
	m.check()
	d, release := m.dir, m.release
	bytes := noc.CtrlBytes
	if m.dataShipped {
		bytes = noc.DataBytes
	}
	d.sys.Link.Send(d.socket, bytes, m.on.granted)
	release()
}

// ReplicaPUTM completes a replica-side dirty writeback: the data message has
// already arrived at home (and the replica memory was written by the replica
// directory); write the home copy and clear ownership. done runs at home.
func (d *HomeDir) ReplicaPUTM(l topology.Line, done func()) {
	d.sequencer.Do("ReplicaPUTM", l, func(release func()) {
		e := d.entry(l)
		r := d.remoteSocket()
		if int(e.owner) == r {
			e.state = cache.Invalid
			e.owner = -1
			e.sharers = [2]bool{}
		}
		d.sys.MCs[d.socket].Write(topology.Addr(l), func() {
			release()
			done()
		})
	})
}
