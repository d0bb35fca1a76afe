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
	start := c.sys.Engs[c.socket].Now()
	c.mshr.Allocate(l)
	needData := e == nil || !e.State.Readable() // S->M upgrades carry no data
	// The miss span covers the whole global transaction; sp is zero (and
	// End a no-op) when tracing is off, so the capture adds nothing to the
	// closure the miss path already allocates.
	var sp telemetry.SpanID
	if tr := c.sys.Trace; tr != nil {
		sp = tr.Begin(telemetry.CompLLC, c.socket, "miss", uint64(l))
	}
	finish := func() {
		lat := uint64(c.sys.Engs[c.socket].Now() - start)
		cnt := c.sys.Cnts[c.socket]
		cnt.MemLatencySum += lat
		cnt.MemCount++
		cnt.MissLatency.Add(lat)
		c.fill(core, write, l)
		c.sys.l1Fill(core, l, write)
		if tr := c.sys.Trace; tr != nil {
			tr.Point(telemetry.CompLLC, c.socket, "fill", uint64(l))
			tr.End(sp)
		}
		done()
		for _, w := range c.mshr.Release(l) {
			w()
		}
	}
	c.sys.Engs[c.socket].Schedule(lat, func() {
		if write {
			c.issueGETX(l, needData, finish)
		} else {
			c.issueGETS(l, needData, finish)
		}
	})
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

// issueGETS routes a global read request: to the local home directory, to
// the local replica agent, or across the link to the remote home directory.
func (c *LLC) issueGETS(l topology.Line, needData bool, done func()) {
	home := c.sys.AMap.HomeSocketLine(l)
	switch {
	case home == c.socket:
		c.sys.Dirs[home].GETS(c.socket, l, done)
	case c.sys.Replicas[c.socket] != nil && c.sys.HasReplica(l):
		c.sys.Replicas[c.socket].LocalGETS(l, needData, func(fromReplica bool) {
			if fromReplica {
				c.sys.Cnts[c.socket].ReplicaReads++
			}
			done()
		})
	default:
		c.sys.Link.Send(c.socket, noc.CtrlBytes, func() {
			c.sys.Dirs[home].GETS(c.socket, l, done)
		})
	}
}

func (c *LLC) issueGETX(l topology.Line, needData bool, done func()) {
	home := c.sys.AMap.HomeSocketLine(l)
	switch {
	case home == c.socket:
		c.sys.Dirs[home].GETX(c.socket, l, needData, done)
	case c.sys.Replicas[c.socket] != nil && c.sys.HasReplica(l):
		c.sys.Replicas[c.socket].LocalGETX(l, needData, done)
	default:
		c.sys.Link.Send(c.socket, noc.CtrlBytes, func() {
			c.sys.Dirs[home].GETX(c.socket, l, needData, done)
		})
	}
}

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
