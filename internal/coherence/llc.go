package coherence

import (
	"dve/internal/cache"
	"dve/internal/noc"
	"dve/internal/sim"
	"dve/internal/telemetry"
	"dve/internal/topology"
)

// LLC is one socket's shared, inclusive last-level cache with the embedded
// local directory (per-core sharer vector and owner), per Table II. Entry
// state is the socket's *global* coherence state; Sharers/Owner track which
// L1s within the socket hold the line.
type LLC struct {
	sys    *System
	socket int
	store  *cache.Cache
	mshr   *cache.MSHR
}

func newLLC(s *System, socket int) *LLC {
	return &LLC{
		sys:    s,
		socket: socket,
		store:  cache.New(s.Cfg.LLCSizeBytes, s.Cfg.LLCWays, s.Cfg.LineSizeBytes),
		mshr:   cache.NewMSHR(),
	}
}

// Request services a demand access from a core of this socket after its L1
// missed. done fires when the LLC can supply the line to the L1. The L1 fill
// and local-directory bookkeeping are applied at grant time, synchronously
// with the LLC state change — if they waited for the mesh return trip, a
// probe arriving in that window would miss the L1 copy and leave it holding
// a stale writable line (an SWMR violation); done only accounts the latency.
func (c *LLC) Request(core int, write bool, l topology.Line, done func()) {
	if c.mshr.Busy(l) {
		c.mshr.Defer(l, func() { c.Request(core, write, l, done) })
		return
	}
	lat := sim.Cycle(c.sys.Cfg.LLCLatencyCyc)
	e := c.store.Lookup(l)
	if e != nil && (!write && e.State.Readable() || write && e.State.Writable()) {
		c.sys.Cnts[c.socket].LLCHits++
		lat += c.localService(core, write, e)
		c.sys.l1Fill(core, l, write)
		c.sys.Engs[c.socket].Schedule(lat, done)
		return
	}
	// Global transaction required.
	c.sys.Cnts[c.socket].LLCMisses++
	c.mshr.Allocate(l)
	m := c.sys.takeMiss(c.socket)
	m.core, m.write, m.line, m.done = core, write, l, done
	m.needData = e == nil || !e.State.Readable()
	m.start = c.sys.Engs[c.socket].Now()
	// The miss span covers the whole global transaction; it stays zero
	// (and End a no-op) when tracing is off.
	if tr := c.sys.Trace; tr != nil {
		m.span = tr.Begin(telemetry.CompLLC, c.socket, "miss", uint64(l))
	}
	c.sys.Engs[c.socket].Schedule(lat, m.on.issue)
}

// issue routes the miss's global request: to the local home directory, to
// the local replica agent, or across the link to the remote home directory.
func (m *Miss) issue() {
	m.check()
	s := m.sys
	m.mark(HopIssue, m.socket)
	switch home := s.AMap.HomeSocketLine(m.line); {
	case home == m.socket:
		m.toHome()
	case s.Replicas[m.socket] != nil && s.HasReplica(m.line):
		if m.write {
			s.Replicas[m.socket].LocalGETX(m)
		} else {
			s.Replicas[m.socket].LocalGETS(m)
		}
	default:
		m.markFirst(HopLinkOut, m.socket)
		s.Link.Send(m.socket, noc.CtrlBytes, m.on.toHome)
	}
}

// toHome hands the miss to its home directory.
func (m *Miss) toHome() {
	m.check()
	d := m.sys.Dirs[m.sys.AMap.HomeSocketLine(m.line)]
	if m.write {
		d.GETX(m)
	} else {
		d.GETS(m)
	}
}

// back is the home directory's reply arriving across the link.
func (m *Miss) back() {
	m.check()
	m.mark(HopLinkBack, m.socket)
	m.finish()
}

// finish fills the line at the requester, grants it to the L1, wakes the
// requests the LLC's MSHR deferred behind the miss and recycles the record
// (unless a squashed speculative read is still out: its landing recycles
// it). Callers must copy out any field they use afterwards.
func (m *Miss) finish() {
	s, c := m.sys, m.sys.LLCs[m.socket]
	now := s.Engs[m.socket].Now()
	lat := uint64(now - m.start)
	cnt := s.Cnts[m.socket]
	if m.fromReplica {
		cnt.ReplicaReads++
	}
	cnt.MemLatencySum += lat
	cnt.MemCount++
	cnt.MissLatency.Add(lat)
	c.fill(m.core, m.write, m.line)
	s.l1Fill(m.core, m.line, m.write)
	if tr := s.Trace; tr != nil {
		tr.Point(telemetry.CompLLC, m.socket, "fill", uint64(m.line))
		tr.End(m.span)
	}
	m.stamps[HopFill] = now
	if s.OnMissFill != nil {
		s.OnMissFill(m)
	}
	m.done()
	for _, w := range c.mshr.Release(m.line) {
		w()
	}
	m.filled = true
	if m.spec && !m.specDone {
		return
	}
	m.recycle()
}

// localService satisfies a request entirely within the socket, returning the
// extra latency of any L1 probes. State changes are applied immediately.
func (c *LLC) localService(core int, write bool, e *cache.Entry) sim.Cycle {
	lc := core % c.sys.Cfg.CoresPerSocket
	var extra sim.Cycle
	probe := func(owner int) sim.Cycle {
		return 2*c.sys.Mesh.Latency(c.sys.Mesh.HomeTile(), c.sys.Mesh.CoreTile(owner)) +
			sim.Cycle(c.sys.Cfg.L1LatencyCyc)
	}
	if write {
		// Invalidate every other local L1 copy.
		for s := 0; s < c.sys.Cfg.CoresPerSocket; s++ {
			if s == lc || e.Sharers&(1<<uint(s)) == 0 {
				continue
			}
			gc := c.socket*c.sys.Cfg.CoresPerSocket + s
			if c.sys.probeL1(gc, e.Line, true) {
				e.Dirty = true
			}
			if p := probe(s); p > extra {
				extra = p
			}
			e.Sharers &^= 1 << uint(s)
		}
		e.Owner = int8(lc)
		e.Dirty = true
	} else if e.Owner >= 0 && int(e.Owner) != lc {
		// Fetch from the local L1 that holds it dirty; downgrade it.
		gc := c.socket*c.sys.Cfg.CoresPerSocket + int(e.Owner)
		if c.sys.probeL1(gc, e.Line, false) {
			e.Dirty = true
		}
		extra = probe(int(e.Owner))
		e.Owner = -1
	}
	return extra
}

// noteL1Fill records an L1's copy in the local directory after a fill.
func (c *LLC) noteL1Fill(core int, l topology.Line, write bool) {
	e := c.store.Peek(l)
	if e == nil {
		return
	}
	lc := core % c.sys.Cfg.CoresPerSocket
	e.Sharers |= 1 << uint(lc)
	if write {
		e.Owner = int8(lc)
	}
}

// fill installs a granted line, evicting and writing back a victim if needed.
func (c *LLC) fill(core int, write bool, l topology.Line) {
	st := cache.Shared
	if write {
		st = cache.Modified
	}
	if e := c.store.Peek(l); e != nil {
		// Upgrade in place.
		e.State = st
		c.localService(core, write, e)
		return
	}
	e, victim, evicted := c.store.Insert(l, st)
	e.Dirty = write
	e.Sharers = 0
	e.Owner = -1
	if evicted {
		c.evict(victim)
	}
}

// evict handles an LLC victim: back-invalidate L1 copies (inclusion) and
// write back dirty data globally.
func (c *LLC) evict(victim cache.Entry) {
	for s := 0; s < c.sys.Cfg.CoresPerSocket; s++ {
		if victim.Sharers&(1<<uint(s)) != 0 {
			gc := c.socket*c.sys.Cfg.CoresPerSocket + s
			if c.sys.probeL1(gc, victim.Line, true) {
				victim.Dirty = true
			}
		}
	}
	if victim.State == cache.Modified || victim.State == cache.Owned || victim.Dirty {
		c.issuePUTM(victim.Line)
	}
}

// Probe handles an incoming coherence probe from the global level (directly
// from the home directory, or via the replica agent). It applies the state
// change immediately and reports whether the copy was dirty. Absent lines
// report clean (e.g. a writeback already in flight).
func (c *LLC) Probe(l topology.Line, invalidate bool) (dirty bool) {
	e := c.store.Peek(l)
	if e == nil {
		return false
	}
	// Probe the owning L1 first so its dirty data merges in.
	if e.Owner >= 0 {
		gc := c.socket*c.sys.Cfg.CoresPerSocket + int(e.Owner)
		if c.sys.probeL1(gc, l, invalidate) {
			e.Dirty = true
		}
		if !invalidate {
			e.Owner = -1
		}
	}
	dirty = e.Dirty
	if invalidate {
		for s := 0; s < c.sys.Cfg.CoresPerSocket; s++ {
			if e.Sharers&(1<<uint(s)) != 0 {
				gc := c.socket*c.sys.Cfg.CoresPerSocket + s
				c.sys.probeL1(gc, l, true)
			}
		}
		c.store.Invalidate(l)
	} else {
		if e.State == cache.Modified {
			e.State = cache.Owned
		}
	}
	return dirty
}

// Downgrade moves the line to Shared and clears its dirty bit (used after a
// Dvé dual writeback of the owner's data). Reports previous dirtiness.
func (c *LLC) Downgrade(l topology.Line) (dirty bool) {
	e := c.store.Peek(l)
	if e == nil {
		return false
	}
	if e.Owner >= 0 {
		gc := c.socket*c.sys.Cfg.CoresPerSocket + int(e.Owner)
		if c.sys.probeL1(gc, l, false) {
			e.Dirty = true
		}
		e.Owner = -1
	}
	dirty = e.Dirty || e.State == cache.Modified || e.State == cache.Owned
	e.State = cache.Shared
	e.Dirty = false
	return dirty
}

// RegisterRemoteShared records every clean Shared remote-homed line of this
// LLC as a replica-side sharer at its home directory, and returns how many
// were registered. The dynamic protocol's warmup uses it when switching to
// the allow-based family: copies acquired through deny-mode replica reads
// are unknown to the home directory (deny serves without registering a
// sharer), so allow-mode sharer-driven invalidations would miss them. The
// paper's "warmup phase to bring the metadata entries au courant" — a
// metadata walk, so the surviving cache contents are kept (flushing them
// instead causes a re-miss storm after every protocol switch).
// Dirty/owned lines are already tracked by the home directory's owner field.
func (c *LLC) RegisterRemoteShared() int {
	n := 0
	c.store.ForEach(func(e *cache.Entry) bool {
		if e.State == cache.Shared && !e.Dirty &&
			c.sys.AMap.HomeSocketLine(e.Line) != c.socket {
			home := c.sys.AMap.HomeSocketLine(e.Line)
			c.sys.Dirs[home].OracleAddSharer(e.Line, c.socket)
			n++
		}
		return true
	})
	return n
}

// HasLine reports whether the LLC currently holds the line (any valid state).
func (c *LLC) HasLine(l topology.Line) bool { return c.store.Peek(l) != nil }

func (c *LLC) issuePUTM(l topology.Line) {
	home := c.sys.AMap.HomeSocketLine(l)
	switch {
	case home == c.socket:
		c.sys.Dirs[home].PUTM(c.socket, l, func() {})
	case c.sys.Replicas[c.socket] != nil && c.sys.HasReplica(l):
		c.sys.Replicas[c.socket].LocalPUTM(l, func() {})
	default:
		c.sys.Link.Send(c.socket, noc.DataBytes, func() {
			c.sys.Dirs[home].PUTM(c.socket, l, func() {})
		})
	}
}
