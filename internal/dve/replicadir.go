// Package dve implements the paper's contribution: Coherent Replication.
//
// A ReplicaDir is attached to each socket and manages coherent access to the
// replicas of lines homed on the *other* socket. It implements both protocol
// families of Section V-C — allow-based (lazy pull of read permissions) and
// deny-based (eager push of deny permissions, with the RemoteModified state)
// — plus the three optimizations of Section V-C5: speculative replica
// access, coarse-grained (region) tracking, and the sampling-based dynamic
// protocol. The package also provides the workload runner that reproduces
// the paper's evaluation.
package dve

import (
	"dve/internal/cache"
	"dve/internal/coherence"
	"dve/internal/noc"
	"dve/internal/sim"
	"dve/internal/telemetry"
	"dve/internal/topology"
)

// Mode selects the replica-directory protocol family.
type Mode int

const (
	// Allow: replica accessible only with an explicit entry (absence = no).
	Allow Mode = iota
	// Deny: replica accessible unless an RM entry forbids it (absence = yes).
	Deny
)

// String returns the protocol family name.
func (m Mode) String() string {
	if m == Deny {
		return "deny"
	}
	return "allow"
}

// ReplicaDir is the replica directory controller of one socket. It services
// requests from its socket's LLC for lines homed on the other socket, keeps
// the replica in sync via synchronous dual writebacks, and answers the home
// directory's invalidations, deny pushes, and fetches.
type ReplicaDir struct {
	sys    *coherence.System
	socket int
	mode   Mode

	// store is the fully associative on-chip entry structure (2K entries by
	// default, Section VI). Under the deny protocol it caches the durable
	// backing state; under allow it is the only record.
	store *cache.Cache
	// backing is the deny protocol's durable per-line state (the in-memory
	// full directory the cache misses fetch from).
	backing cache.LineTable[topology.Line, cache.State]
	// regions tracks coarse-grain grants (allow + CoarseGrain, Fig 9).
	regions map[uint64]bool
	// owners durably records lines this socket's LLC holds in M. It models
	// pinned Modified entries: a real replica directory cannot silently
	// evict an owner entry (the model checker shows a stale writeback would
	// then corrupt the replica), so ownership records are exempt from the
	// capacity-bounded store.
	owners cache.LineTable[topology.Line, struct{}]

	// sequencer serializes transactions per line at the directory access
	// latency (the same as the home directory's, Section VI).
	sequencer *cache.Sequencer

	// fillPending tracks lines with a granted-but-unfilled local demand
	// transaction (the grant may still be reading the replica DRAM). Home
	// probes for such lines are deferred until the fill lands — the
	// simulator's equivalent of the ordered RD->LLC channel that makes this
	// race benign in the verified model. Writebacks (LocalPUTM) do not
	// allocate it: deferring probes across a writeback would deadlock with
	// the home MSHR, and the LLC answers probes correctly during one.
	fillPending *cache.MSHR

	// dirFetchLat is the cost of fetching a directory entry from DRAM on a
	// store miss under the deny protocol.
	dirFetchLat sim.Cycle

	oracular bool

	// steps are the directory's miss-transaction steps, bound once so that
	// parking one on a miss record allocates nothing.
	steps struct {
		getsHeld, getxHeld, getxEntry, getxGranted func(*coherence.Miss)
		allowGranted, denyGranted, oracleGranted   func(*coherence.Miss)
		regionAnswered                             func(*coherence.Miss)
		denyEntryCached, denyEntryMissed           func(*coherence.Miss)
		replicaRead                                func(*coherence.Miss, bool)
	}
}

// New creates the replica directory for a socket and registers it with the
// system.
func New(sys *coherence.System, socket int, mode Mode) *ReplicaDir {
	cfg := sys.Cfg
	rd := &ReplicaDir{
		sys:         sys,
		socket:      socket,
		mode:        mode,
		store:       cache.NewFullyAssoc(cfg.ReplicaDirEntries, cfg.LineSizeBytes),
		backing:     cache.NewLineTable[topology.Line, cache.State](0),
		regions:     make(map[uint64]bool),
		owners:      cache.NewLineTable[topology.Line, struct{}](0),
		fillPending: cache.NewMSHR(),
		sequencer: cache.NewSequencer(sys.Engs[socket], sim.Cycle(cfg.DirLatencyCyc),
			telemetry.CompReplicaDir, socket),
		dirFetchLat: sim.Cycle(cfg.Cycles(cfg.TRCDns+cfg.TCLns)) +
			10, // activate + CAS + burst for the in-memory directory line
		oracular: cfg.Oracular,
	}
	rd.sequencer.Trace = sys.Trace
	st := &rd.steps
	st.getsHeld, st.getxHeld = rd.getsHeld, rd.getxHeld
	st.getxEntry, st.getxGranted = rd.getxEntry, rd.getxGranted
	st.allowGranted, st.denyGranted, st.oracleGranted = rd.allowGranted, rd.denyGranted, rd.oracleGranted
	st.regionAnswered = rd.regionAnswered
	st.denyEntryCached = func(m *coherence.Miss) { rd.denyEntry(m, true) }
	st.denyEntryMissed = func(m *coherence.Miss) { rd.denyEntry(m, false) }
	st.replicaRead = rd.replicaRead
	sys.SetReplicaAgent(socket, rd)
	return rd
}

// Mode returns the current protocol family.
func (rd *ReplicaDir) Mode() Mode { return rd.mode }

// DenyMode reports whether the deny protocol is active; the home directory
// uses it to decide whether deny pushes are required.
func (rd *ReplicaDir) DenyMode() bool { return rd.mode == Deny }

func (rd *ReplicaDir) home() *coherence.HomeDir {
	return rd.sys.Dirs[(rd.socket+1)%rd.sys.Cfg.Sockets]
}

func (rd *ReplicaDir) replicaAddr(l topology.Line) topology.Addr {
	// RawReplicaAddr ignores kill-driven demotion: a transaction already in
	// flight when a socket kill demotes the line still completes against
	// the dead controller (reads fail, writes are dropped) instead of
	// finding its mapping vanished. New requests are routed past the
	// replica directory by the HasReplica guards.
	ra, ok := rd.sys.RawReplicaAddr(l)
	if !ok {
		// Routing guarantees the replica exists; reaching here is a bug.
		panic("dve: replica directory asked about an unreplicated line")
	}
	return ra
}

func (rd *ReplicaDir) regionOf(l topology.Line) uint64 {
	return uint64(l) / uint64(rd.sys.Cfg.RegionBytes)
}

// readReplicaMem reads the miss's line from this socket's replica memory,
// recovering via the home copy if the local ECC check fails.
func (rd *ReplicaDir) readReplicaMem(m *coherence.Miss) {
	rd.sys.MCs[rd.socket].Read(rd.replicaAddr(m.Line()), m.ReadThen(rd.steps.replicaRead))
}

func (rd *ReplicaDir) replicaRead(m *coherence.Miss, failed bool) {
	if !failed {
		rd.readDone(m)
		return
	}
	l := m.Line()
	cnt := rd.sys.Cnts[rd.socket]
	rd.sys.ReportRAS(coherence.EvDetect, rd.socket, l)
	// Divert to the home memory controller (Section V-B2).
	home := (rd.socket + 1) % rd.sys.Cfg.Sockets
	rd.sys.Link.Send(rd.socket, noc.CtrlBytes, func() {
		rd.sys.MCs[home].Read(topology.Addr(l), func(failed2 bool) {
			rd.sys.Link.Send(home, noc.DataBytes, func() {
				if failed2 {
					cnt.DetectedUncorrect++
					rd.sys.ReportRAS(coherence.EvDUE, rd.socket, l)
				} else {
					cnt.CorrectedErrors++
					cnt.Recoveries++
					rd.sys.ReportRAS(coherence.EvRecover, rd.socket, l)
					// Try to repair the replica copy.
					cnt.RepairWrites++
					rd.sys.ReportRAS(coherence.EvRepair, rd.socket, l)
					ra := rd.replicaAddr(l)
					rd.sys.MCs[rd.socket].Write(ra, func() {})
					rd.sys.ReportRepair(rd.socket, ra)
				}
				rd.readDone(m)
			})
		})
	})
}

// readDone runs when a replica read has the data. A miss that issued a
// speculative read issues no other, so the read is that one: it completes
// the miss if the grant already waits for it.
func (rd *ReplicaDir) readDone(m *coherence.Miss) {
	if m.Spec() {
		if m.SpecLanded() {
			rd.fin(m, true)
		}
		return
	}
	rd.fin(m, !m.Write())
}

// fin completes a local miss at this socket's LLC, then wakes the home
// probes deferred behind the fill and frees the line.
func (rd *ReplicaDir) fin(m *coherence.Miss, fromReplica bool) {
	l, release := m.Line(), m.AgentRelease()
	if tr := rd.sys.Trace; tr != nil && !m.Write() {
		if fromReplica {
			tr.Point(telemetry.CompReplicaDir, rd.socket, "grant-replica", uint64(l))
		} else {
			tr.Point(telemetry.CompReplicaDir, rd.socket, "grant-home", uint64(l))
		}
	}
	m.Complete(fromReplica)
	rd.fillDone(l)
	release()
}

// LocalGETS implements coherence.ReplicaAgent.
func (rd *ReplicaDir) LocalGETS(m *coherence.Miss) {
	rd.sequencer.Do("LocalGETS", m.Line(), m.Held(rd.steps.getsHeld))
}

func (rd *ReplicaDir) getsHeld(m *coherence.Miss) {
	if rd.oracular {
		rd.oracleGETS(m)
		return
	}
	if rd.mode == Deny {
		rd.denyGETS(m)
		return
	}
	rd.allowGETS(m)
}

func (rd *ReplicaDir) allowGETS(m *coherence.Miss) {
	l := m.Line()
	cnt := rd.sys.Cnts[rd.socket]
	if e := rd.store.Lookup(l); e != nil {
		cnt.ReplicaDirHits++
		// S or M entry: the replica (or our own LLC) holds current data.
		// An M entry here is a degenerate race; serve locally either way.
		// Mark the fill in flight so home probes defer behind it; this
		// transaction completes without home involvement, so the deferral
		// cannot deadlock against the home MSHR.
		rd.fillPending.Allocate(l)
		rd.readReplicaMem(m)
		return
	}
	if rd.sys.Cfg.CoarseGrain && rd.regions[rd.regionOf(l)] {
		cnt.ReplicaDirHits++
		rd.fillPending.Allocate(l)
		rd.readReplicaMem(m)
		return
	}
	cnt.ReplicaDirMisses++
	if rd.sys.Cfg.CoarseGrain {
		rd.allowRegionMiss(m)
		return
	}
	rd.allowLineMiss(m)
}

// allowLineMiss pulls a read permission from the home directory, overlapping
// a speculative local replica read with the round trip when enabled.
func (rd *ReplicaDir) allowLineMiss(m *coherence.Miss) {
	if rd.sys.Cfg.SpeculativeReads {
		rd.sys.Cnts[rd.socket].SpecIssued++
		m.IssueSpec()
		rd.readReplicaMem(m)
	}
	m.SendHome(rd.steps.allowGranted)
}

func (rd *ReplicaDir) allowGranted(m *coherence.Miss) {
	l := m.Line()
	// Grant received: home has serialized us; probes sent by later home
	// transactions must now wait for our fill.
	rd.fillPending.Allocate(l)
	rd.insertEntry(l, cache.Shared)
	if m.DataShipped() {
		// Home LLC was dirty: the shipped data is also the replica update
		// half of the dual writeback.
		if m.Spec() {
			rd.sys.Cnts[rd.socket].SpecSquashed++
			m.SquashSpec()
		}
		rd.sys.MCs[rd.socket].Write(rd.replicaAddr(l), func() {})
		rd.fin(m, false)
		return
	}
	if m.Spec() {
		if m.AwaitSpec() {
			rd.fin(m, true) // fully overlapped
		}
		return
	}
	rd.readReplicaMem(m)
}

// allowRegionMiss tries to obtain a coarse-grain region grant; on refusal it
// falls back to a line grant.
func (rd *ReplicaDir) allowRegionMiss(m *coherence.Miss) {
	m.AskRegion(rd.steps.regionAnswered)
}

func (rd *ReplicaDir) regionAnswered(m *coherence.Miss) {
	if !m.RegionGranted() {
		// A line in the region is writable on the home side: fall back.
		rd.allowLineMiss(m)
		return
	}
	l := m.Line()
	rd.regions[rd.regionOf(l)] = true
	rd.fillPending.Allocate(l)
	rd.readReplicaMem(m)
}

func (rd *ReplicaDir) denyGETS(m *coherence.Miss) {
	cnt := rd.sys.Cnts[rd.socket]
	cachedEntry := rd.store.Lookup(m.Line()) != nil
	var entryLat sim.Cycle
	if cachedEntry {
		cnt.ReplicaDirHits++
	} else {
		cnt.ReplicaDirMisses++
		// Fetch the durable entry from memory; speculatively read the
		// replica in parallel (Section V-C5).
		entryLat = rd.dirFetchLat
		if rd.sys.Cfg.SpeculativeReads {
			cnt.SpecIssued++
			m.IssueSpec()
			rd.readReplicaMem(m)
		}
	}
	step := rd.steps.denyEntryMissed
	if cachedEntry {
		step = rd.steps.denyEntryCached
	}
	rd.sys.Engs[rd.socket].Schedule(entryLat, m.Then(step))
}

// denyEntry runs when the durable entry is at hand (cached: at once;
// otherwise after the fetch from memory).
func (rd *ReplicaDir) denyEntry(m *coherence.Miss, cachedEntry bool) {
	l := m.Line()
	// Sample the durable entry when the fetch completes, not when it
	// issues: a HomeInvalidate can land while the fetch (or the
	// speculative read) is in flight, and its freshly installed RM must
	// not be read stale here — nor clobbered with Shared below, which
	// would let this socket fill a line the home side holds writable (an
	// SWMR violation).
	st := cache.Shared
	if p := rd.backing.Get(l); p != nil {
		st = *p
	}
	if !cachedEntry {
		rd.insertEntry(l, st)
	}
	if st == cache.RemoteModified {
		// Replica is stale: the home LLC holds the line writable.
		if m.Spec() {
			rd.sys.Cnts[rd.socket].SpecSquashed++
			m.SquashSpec()
		}
		m.SendHome(rd.steps.denyGranted)
		return
	}
	// Absence (or S/M): the replica is current — read it locally with no
	// link traffic at all. Home probes defer behind the in-flight fill (no
	// home transaction involved: deadlock-free).
	rd.fillPending.Allocate(l)
	rd.backing.Set(l, cache.Shared)
	if m.Spec() {
		if m.AwaitSpec() {
			rd.fin(m, true)
		}
		return
	}
	rd.readReplicaMem(m)
}

func (rd *ReplicaDir) denyGranted(m *coherence.Miss) {
	l := m.Line()
	rd.fillPending.Allocate(l)
	rd.backing.Set(l, cache.Shared)
	rd.insertEntry(l, cache.Shared)
	if m.DataShipped() {
		rd.sys.MCs[rd.socket].Write(rd.replicaAddr(l), func() {})
	}
	rd.fin(m, false)
}

// oracleGETS models the oracular allow scheme of Fig 9: infinite entries and
// zero-latency insertion. It consults home state with oracle knowledge; only
// genuinely-required transfers (home-side dirty data) pay latency.
func (rd *ReplicaDir) oracleGETS(m *coherence.Miss) {
	l := m.Line()
	cnt := rd.sys.Cnts[rd.socket]
	st, owner, _ := rd.home().Entry(l)
	homeSocket := (rd.socket + 1) % rd.sys.Cfg.Sockets
	if (st == cache.Modified || st == cache.Owned) && owner == homeSocket {
		cnt.ReplicaDirMisses++
		m.SendHome(rd.steps.oracleGranted)
		return
	}
	cnt.ReplicaDirHits++
	rd.home().OracleAddSharer(l, rd.socket)
	rd.fillPending.Allocate(l)
	rd.readReplicaMem(m)
}

func (rd *ReplicaDir) oracleGranted(m *coherence.Miss) {
	l := m.Line()
	rd.fillPending.Allocate(l)
	if m.DataShipped() {
		rd.sys.MCs[rd.socket].Write(rd.replicaAddr(l), func() {})
	}
	rd.fin(m, false)
}

// LocalGETX implements coherence.ReplicaAgent: exclusive permission always
// serializes at the home directory; when the home side holds no dirty copy
// the grant is control-only and data comes from the local replica.
func (rd *ReplicaDir) LocalGETX(m *coherence.Miss) {
	rd.sequencer.Do("LocalGETX", m.Line(), m.Held(rd.steps.getxHeld))
}

func (rd *ReplicaDir) getxHeld(m *coherence.Miss) {
	var entryLat sim.Cycle
	if rd.mode == Deny && !rd.oracular {
		if rd.store.Lookup(m.Line()) == nil {
			entryLat = rd.dirFetchLat
		}
	}
	rd.sys.Engs[rd.socket].Schedule(entryLat, m.Then(rd.steps.getxEntry))
}

func (rd *ReplicaDir) getxEntry(m *coherence.Miss) { m.SendHome(rd.steps.getxGranted) }

func (rd *ReplicaDir) getxGranted(m *coherence.Miss) {
	l := m.Line()
	rd.fillPending.Allocate(l)
	rd.recordOwnership(l)
	if m.DataShipped() || !m.NeedData() {
		rd.fin(m, false)
		return
	}
	// Replica memory is current: supply data locally.
	rd.readReplicaMem(m)
}

func (rd *ReplicaDir) recordOwnership(l topology.Line) {
	rd.owners.Set(l, struct{}{})
	if rd.oracular {
		return
	}
	rd.insertEntry(l, cache.Modified)
	if rd.mode == Deny {
		rd.backing.Set(l, cache.Modified)
	}
}

// insertEntry installs a line entry in the on-chip structure; silent
// eviction of the victim is safe in both modes (allow: absence = no; deny:
// the durable backing holds the truth).
func (rd *ReplicaDir) insertEntry(l topology.Line, st cache.State) {
	rd.store.Insert(l, st)
}

// LocalPUTM implements coherence.ReplicaAgent: a dirty writeback from this
// socket's LLC updates the replica locally and ships the data home so both
// copies are written synchronously (Section V-B1).
func (rd *ReplicaDir) LocalPUTM(l topology.Line, done func()) {
	rd.sequencer.Do("LocalPUTM", l, func(release func()) {
		if rd.owners.Get(l) == nil {
			// Ownership was fetched away while this writeback was queued:
			// the fetch already carried the data home. Applying the stale
			// data now would corrupt the replica (found by the model
			// checker); just complete the eviction.
			done()
			release()
			return
		}
		rd.owners.Delete(l)
		rd.sys.Cnts[rd.socket].DualWritebacks++
		remaining := 2
		part := func() {
			remaining--
			if remaining == 0 {
				done()
				release()
			}
		}
		ra := rd.replicaAddr(l)
		rd.sys.MCs[rd.socket].Write(ra, part)
		rd.sys.ReportRepair(rd.socket, ra)
		rd.sys.Link.Send(rd.socket, noc.DataBytes, func() {
			rd.home().ReplicaPUTM(l, func() {
				rd.sys.Link.Send((rd.socket+1)%rd.sys.Cfg.Sockets, noc.CtrlBytes, part)
			})
		})
		// Both copies now (will) hold current data.
		if rd.mode == Deny {
			rd.backing.Delete(l)
		}
		rd.store.Invalidate(l)
	})
}

// fillDone completes a demand fill: deferred home probes now run, in order.
func (rd *ReplicaDir) fillDone(l topology.Line) {
	for _, w := range rd.fillPending.Release(l) {
		w()
	}
}

// HomeInvalidate implements coherence.ReplicaAgent: the home side is taking
// exclusive access. Allow: drop the entry (and any covering region). Deny:
// install the durable RM state. Either way replica-side LLC copies die.
func (rd *ReplicaDir) HomeInvalidate(l topology.Line, ack func()) {
	if rd.fillPending.Busy(l) {
		// Wait for the in-flight demand fill. The retry closure is built
		// only here: built up front it would cost every probe an
		// allocation.
		rd.fillPending.Defer(l, func() { rd.HomeInvalidate(l, ack) })
		return
	}
	lat := sim.Cycle(rd.sys.Cfg.DirLatencyCyc)
	rd.owners.Delete(l)
	rd.sys.LLCs[rd.socket].Probe(l, true)
	if rd.mode == Deny && !rd.oracular {
		rd.backing.Set(l, cache.RemoteModified)
		rd.insertEntry(l, cache.RemoteModified)
	} else {
		rd.store.Invalidate(l)
		if rd.sys.Cfg.CoarseGrain {
			region := rd.regionOf(l)
			if rd.regions[region] {
				delete(rd.regions, region)
				// Invalidate every LLC line of the region: the coarse-grain
				// penalty the paper observes on nw, sp, barnes, canneal.
				linesPerRegion := rd.sys.Cfg.RegionBytes / rd.sys.Cfg.LineSizeBytes
				base := topology.Line(region * uint64(rd.sys.Cfg.RegionBytes))
				n := 0
				for i := 0; i < linesPerRegion; i++ {
					rl := base + topology.Line(i*rd.sys.Cfg.LineSizeBytes)
					if rd.sys.LLCs[rd.socket].Probe(rl, true) || rd.sys.LLCs[rd.socket].HasLine(rl) {
						n++
					}
				}
				lat += sim.Cycle(2 * n)
			}
		}
	}
	rd.sys.Engs[rd.socket].Schedule(lat, ack)
}

// HomeUndeny implements coherence.ReplicaAgent: a home-side writeback
// completed; the replica is current again.
func (rd *ReplicaDir) HomeUndeny(l topology.Line) {
	if rd.mode != Deny {
		return
	}
	rd.backing.Delete(l)
	rd.store.Invalidate(l)
}

// HomeFetch implements coherence.ReplicaAgent: retrieve dirty data from this
// socket's LLC on behalf of the home directory.
func (rd *ReplicaDir) HomeFetch(l topology.Line, invalidate bool, ack func()) {
	if rd.fillPending.Busy(l) {
		rd.fillPending.Defer(l, func() { rd.HomeFetch(l, invalidate, ack) })
		return
	}
	lat := sim.Cycle(rd.sys.Cfg.DirLatencyCyc + rd.sys.Cfg.LLCLatencyCyc)
	rd.owners.Delete(l)
	if invalidate {
		rd.sys.LLCs[rd.socket].Probe(l, true)
		if rd.mode == Deny && !rd.oracular {
			// The home side is taking exclusive access.
			rd.backing.Set(l, cache.RemoteModified)
			rd.insertEntry(l, cache.RemoteModified)
		} else {
			rd.store.Invalidate(l)
		}
	} else {
		rd.sys.LLCs[rd.socket].Downgrade(l)
		// Half of the dual writeback: update the replica copy here; the
		// data message back to home updates the home copy.
		rd.sys.MCs[rd.socket].Write(rd.replicaAddr(l), func() {})
		if rd.mode == Deny && !rd.oracular {
			rd.backing.Set(l, cache.Shared)
		}
		rd.insertEntry(l, cache.Shared)
	}
	rd.sys.Engs[rd.socket].Schedule(lat, ack)
}

// Drain implements coherence.ReplicaAgent: clear all replica-directory state
// ahead of a protocol switch (Section V-C5). When entering deny mode the
// durable state is rebuilt from the home directory so that absent entries
// are again safe to read (the paper's "warmup phase to bring the metadata
// entries au courant").
func (rd *ReplicaDir) Drain(done func()) {
	rd.store.Clear()
	rd.regions = make(map[uint64]bool)
	rd.backing.Clear()
	// Ownership records are rebuilt from the home directory (the durable
	// source of truth) so stale writebacks stay detectable across a switch.
	rd.owners.Clear()
	for _, l := range rd.home().LinesOwnedBy(rd.socket) {
		rd.owners.Set(l, struct{}{})
	}
	rd.sys.Engs[rd.socket].Schedule(sim.Cycle(rd.sys.Cfg.DirLatencyCyc), done)
}

// SetMode switches the protocol family, draining first. Entering allow
// mode re-registers this socket's remote-homed clean shared lines as
// sharers at home: deny-mode replica reads never registered them, so
// allow-mode (sharer-driven) invalidations would otherwise miss them — the
// paper's "warmup phase to bring the metadata entries au courant".
func (rd *ReplicaDir) SetMode(m Mode, done func()) {
	rd.Drain(func() {
		rd.mode = m
		if m == Allow {
			rd.sys.LLCs[rd.socket].RegisterRemoteShared()
		}
		if m == Deny {
			// Warmup: pull the deny set (home-side writable lines) so that
			// entry absence is trustworthy again.
			for _, l := range rd.home().LinesOwnedBy((rd.socket + 1) % rd.sys.Cfg.Sockets) {
				rd.backing.Set(l, cache.RemoteModified)
			}
		}
		done()
	})
}

var _ coherence.ReplicaAgent = (*ReplicaDir)(nil)
