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

// DegradedLines returns how many lines are in the degraded (single-copy)
// state.
func (d *HomeDir) DegradedLines() int { return len(d.degraded) }

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
	cnt := d.sys.Cnts[d.socket]
	cnt.HomeReads++
	if d.degraded[l] && d.sys.HasReplica(l) {
		// Already degraded: funnel straight to the single working copy.
		cnt.DegradedReads++
		d.readFromReplicaMem(l, func(ok bool) {
			if !ok {
				cnt.DetectedUncorrect++
				d.sys.ReportRAS(EvDUE, d.socket, l)
			}
			cb()
		})
		return
	}
	d.sys.MCs[d.socket].Read(topology.Addr(l), func(failed bool) {
		if !failed {
			cb()
			return
		}
		d.sys.ReportRAS(EvDetect, d.socket, l)
		d.retryRead(l, 0, retryBackoffCyc, cb)
	})
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

// GETS handles a read request from an LLC (the home socket's own LLC, or a
// remote LLC in the baseline — replica-side requests in Dvé come through
// ReplicaGETS). reply runs at the requester when data is available there.
func (d *HomeDir) GETS(src int, l topology.Line, reply func()) {
	d.sequencer.Do("GETS", l, func(release func()) {
		e := d.entry(l)
		d.classify(false, e.state)
		deliver := func() {
			if src == d.socket {
				// Reply synchronously, then release: the requester's LLC
				// fill must land before the MSHR frees, or an already-
				// queued same-line transaction runs between release and
				// fill, probes the LLC pre-fill, and the fill then
				// resurrects a stale copy (SWMR violation). Remote
				// requesters are safe without this: the FIFO link orders
				// their fill ahead of any later probe.
				reply()
				release()
				return
			}
			d.sys.Link.Send(d.socket, noc.DataBytes, reply)
			release()
		}
		switch {
		case e.state == cache.Invalid || e.state == cache.Shared:
			e.state = cache.Shared
			e.sharers[src] = true
			d.readHomeMem(l, deliver)

		case int(e.owner) == src:
			// Degenerate (stale writeback race): serve from memory.
			d.readHomeMem(l, deliver)

		case int(e.owner) == d.socket:
			// Home LLC owns it; requester is a remote baseline LLC.
			d.sys.LLCs[d.socket].Probe(l, false) // M -> O downgrade
			e.state = cache.Owned
			e.sharers[src] = true
			e.sharers[d.socket] = true
			d.sys.Engs[d.socket].Schedule(d.probeLat(), deliver)

		default:
			// Remote side owns it; requester is the home LLC.
			owner := int(e.owner)
			if a := d.sys.Replicas[owner]; a != nil && d.sys.HasReplica(l) {
				// Dvé: fetch via the replica directory; the owner LLC
				// downgrades and the data updates both memories.
				d.sys.Link.Send(d.socket, noc.CtrlBytes, func() {
					a.HomeFetch(l, false, func() {
						d.sys.Link.Send(owner, noc.DataBytes, func() {
							d.sys.MCs[d.socket].Write(topology.Addr(l), func() {})
							e.state = cache.Shared
							e.owner = -1
							e.sharers[d.socket] = true
							e.sharers[owner] = true
							reply() // home-socket requester: fill before release
							release()
						})
					})
				})
				return
			}
			// Baseline: downgrade the remote owner (M -> O), data crosses
			// the link back to the requester at home.
			d.sys.Link.Send(d.socket, noc.CtrlBytes, func() {
				// Runs at the owner after the link crossing: the probe delay
				// belongs to the owner's partition.
				d.sys.LLCs[owner].Probe(l, false)
				d.sys.Engs[owner].Schedule(d.probeLat(), func() {
					d.sys.Link.Send(owner, noc.DataBytes, func() {
						e.state = cache.Owned
						e.sharers[d.socket] = true
						reply() // home-socket requester: fill before release
						release()
					})
				})
			})
		}
	})
}

// GETX handles a write (exclusive) request from an LLC. reply runs at the
// requester when write permission (and data, if needData) is there.
func (d *HomeDir) GETX(src int, l topology.Line, needData bool, reply func()) {
	d.sequencer.Do("GETX", l, func(release func()) {
		e := d.entry(l)
		d.classify(true, e.state)
		agent := d.replicaAgent()
		denyPush := false
		if src == d.socket && agent != nil && d.sys.HasReplica(l) {
			// Dvé: the replica directory must be told before the home side
			// writes. Allow protocol: only when the replica directory holds
			// the line (it is a registered sharer). Deny protocol: always —
			// absence of an entry means the replica is readable, so the deny
			// must be pushed eagerly (Section V-C2).
			denyPush = e.sharers[d.remoteSocket()] || d.denyModeActive()
		}

		deliver := func() {
			if src == d.socket {
				// Synchronous reply before release — see the GETS deliver
				// comment: the home LLC's fill must land before the MSHR
				// frees or a queued same-line transaction probes pre-fill.
				reply()
				release()
				return
			}
			bytes := noc.DataBytes
			if !needData {
				bytes = noc.CtrlBytes
			}
			d.sys.Link.Send(d.socket, bytes, reply)
			release()
		}

		grantTo := func() {
			e.state = cache.Modified
			e.owner = int8(src)
			e.sharers = [2]bool{}
			e.sharers[src] = true
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
				needData = false
			}
			remote := d.remoteSocket()
			needRemoteInv := denyPush ||
				(e.sharers[remote] && src != remote)
			needHomeInv := e.sharers[d.socket] && src != d.socket

			join := 1 // memory/data leg
			if needRemoteInv {
				join++
			}
			pushed := needRemoteInv
			var done func()
			done = func() {
				join--
				if join != 0 {
					return
				}
				// The dynamic protocol can switch families while this
				// transaction is in flight: re-check at grant time and push
				// the deny now if the new mode requires one (otherwise a
				// freshly deny-mode replica directory would keep serving a
				// line the home side is about to write).
				if src == d.socket && agent != nil && !pushed &&
					d.sys.HasReplica(l) && d.denyModeActive() {
					pushed = true
					join = 1
					d.sys.Link.Send(d.socket, noc.CtrlBytes, func() {
						agent.HomeInvalidate(l, func() {
							d.sys.Link.Send(remote, noc.CtrlBytes, done)
						})
					})
					return
				}
				grantTo()
				deliver()
			}
			if needHomeInv {
				// Local probe: latency folded into the directory access.
				d.sys.LLCs[d.socket].Probe(l, true)
			}
			if needRemoteInv {
				d.sys.Link.Send(d.socket, noc.CtrlBytes, func() {
					inv := func(ack func()) {
						if agent != nil && d.sys.HasReplica(l) {
							agent.HomeInvalidate(l, ack)
						} else {
							// Post-link: the probe runs on the remote partition.
							d.sys.LLCs[remote].Probe(l, true)
							d.sys.Engs[remote].Schedule(d.probeLat(), ack)
						}
					}
					inv(func() {
						d.sys.Link.Send(remote, noc.CtrlBytes, done)
					})
				})
			}
			if needData {
				d.readHomeMem(l, done)
			} else {
				d.sys.Engs[d.socket].Schedule(0, done)
			}

		case int(e.owner) == d.socket:
			// Home LLC owns; requester is a remote baseline LLC.
			d.sys.LLCs[d.socket].Probe(l, true)
			grantTo()
			d.sys.Engs[d.socket].Schedule(d.probeLat(), deliver)

		default:
			// Remote side owns; requester is the home LLC.
			owner := int(e.owner)
			if a := d.sys.Replicas[owner]; a != nil && d.sys.HasReplica(l) {
				d.sys.Link.Send(d.socket, noc.CtrlBytes, func() {
					// invalidate=true also installs RM under the deny
					// protocol: the home side is taking exclusive access.
					a.HomeFetch(l, true, func() {
						d.sys.Link.Send(owner, noc.DataBytes, func() {
							grantTo()
							reply() // home-socket requester: fill before release
							release()
						})
					})
				})
				return
			}
			d.sys.Link.Send(d.socket, noc.CtrlBytes, func() {
				// Post-link: probe delay on the owner's partition.
				d.sys.LLCs[owner].Probe(l, true)
				d.sys.Engs[owner].Schedule(d.probeLat(), func() {
					d.sys.Link.Send(owner, noc.DataBytes, func() {
						grantTo()
						reply() // home-socket requester: fill before release
						release()
					})
				})
			})
		}
	})
}

// denyModeActive reports whether the attached replica agent currently runs
// the deny-based protocol (the dynamic protocol switches at runtime).
func (d *HomeDir) denyModeActive() bool {
	type denyModer interface{ DenyMode() bool }
	if a, ok := d.replicaAgent().(denyModer); ok {
		return a.DenyMode()
	}
	return false
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

// ReplicaGETS handles a read request forwarded by the replica directory for
// a line it could not serve locally (allow: no entry; deny: RM). reply runs
// back at the replica directory; dataShipped=false means only a control
// grant crossed the link and the replica memory holds current data.
func (d *HomeDir) ReplicaGETS(l topology.Line, reply func(dataShipped bool)) {
	d.sequencer.Do("ReplicaGETS", l, func(release func()) {
		e := d.entry(l)
		r := d.remoteSocket()
		switch {
		case e.state == cache.Invalid || e.state == cache.Shared,
			int(e.owner) == r:
			e.state = cache.Shared
			e.sharers[r] = true
			// Replica memory is current: control-only grant.
			d.sys.Link.Send(d.socket, noc.CtrlBytes, func() { reply(false) })
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
			d.sys.Engs[d.socket].Schedule(d.probeLat(), func() {
				d.sys.Link.Send(d.socket, noc.DataBytes, func() { reply(true) })
				release()
			})
		}
	})
}

// ReplicaGETX handles an exclusive request forwarded by the replica
// directory. On a control-only grant the replica directory supplies data
// from the local replica memory.
func (d *HomeDir) ReplicaGETX(l topology.Line, reply func(dataShipped bool)) {
	d.sequencer.Do("ReplicaGETX", l, func(release func()) {
		e := d.entry(l)
		r := d.remoteSocket()
		grant := func() {
			e.state = cache.Modified
			e.owner = int8(r)
			e.sharers = [2]bool{}
			e.sharers[r] = true
		}
		switch {
		case e.state == cache.Invalid,
			e.state == cache.Shared && !e.sharers[d.socket],
			int(e.owner) == r:
			grant()
			d.sys.Link.Send(d.socket, noc.CtrlBytes, func() { reply(false) })
			release()
		case e.state == cache.Shared:
			// Invalidate the home LLC sharer, then control grant.
			d.sys.LLCs[d.socket].Probe(l, true)
			grant()
			d.sys.Engs[d.socket].Schedule(d.probeLat(), func() {
				d.sys.Link.Send(d.socket, noc.CtrlBytes, func() { reply(false) })
				release()
			})
		default:
			// Home LLC owns it dirty: invalidate + fetch; ship data.
			d.sys.LLCs[d.socket].Probe(l, true)
			grant()
			d.sys.Engs[d.socket].Schedule(d.probeLat(), func() {
				d.sys.Link.Send(d.socket, noc.DataBytes, func() { reply(true) })
				release()
			})
		}
	})
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
