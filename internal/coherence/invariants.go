package coherence

import (
	"fmt"
	"sort"

	"dve/internal/cache"
)

// CheckInvariants audits the quiescent system state (call after the event
// queue drains): the Single-Writer-Multiple-Reader invariant over the LLCs,
// agreement between the global directories and the caches they track, and
// local-directory inclusion. It returns every violation found — the
// simulator-level counterpart of the model checker's per-state invariants,
// applied to full-size runs.
func (s *System) CheckInvariants() []string {
	var v []string

	// SWMR across sockets: a line writable in one LLC must not be valid in
	// any other. Each line is audited once, from the lowest-numbered LLC
	// that holds it, with its holders gathered in socket order.
	type holder struct {
		socket int
		state  cache.State
	}
	var hs []holder
	for sk, llc := range s.LLCs {
		llc.store.ForEach(func(e *cache.Entry) bool {
			hs = hs[:0]
			for hk, other := range s.LLCs {
				he := other.store.Peek(e.Line)
				if he == nil {
					continue
				}
				if hk < sk {
					return true // audited from LLC hk
				}
				hs = append(hs, holder{hk, he.State})
			}
			writers, readers := 0, 0
			for _, h := range hs {
				if h.state.Writable() {
					writers++
				} else if h.state.Readable() {
					readers++
				}
			}
			if writers > 1 || (writers == 1 && readers > 0) {
				home := s.AMap.HomeSocketLine(e.Line)
				st, owner, sh := s.Dirs[home].Entry(e.Line)
				v = append(v, fmt.Sprintf("SWMR: line %#x held by %d writers / %d readers (holders %v; home=%d dir=%v owner=%d sharers=%v)",
					e.Line, writers, readers, hs, home, st, owner, sh))
			}
			return true
		})
	}

	// Directory agreement: an M/O entry's owner-side cache must actually
	// hold the line (the replica agent owns on behalf of its LLC).
	for _, d := range s.Dirs {
		for i, l := range d.lineOrder {
			e := d.at(i)
			if e.state != cache.Modified && e.state != cache.Owned {
				continue
			}
			if e.owner < 0 || int(e.owner) >= len(s.LLCs) {
				v = append(v, fmt.Sprintf("dir %d: line %#x in %v with owner %d", d.socket, l, e.state, e.owner))
				continue
			}
			if !s.LLCs[e.owner].HasLine(l) {
				v = append(v, fmt.Sprintf("dir %d: line %#x owned by socket %d but absent from its LLC", d.socket, l, e.owner))
			}
		}
	}

	// A writable LLC line must be recorded at its home directory with the
	// right owner.
	for sk, llc := range s.LLCs {
		sk := sk
		llc.store.ForEach(func(e *cache.Entry) bool {
			if !e.State.Writable() {
				return true
			}
			home := s.AMap.HomeSocketLine(e.Line)
			st, owner, _ := s.Dirs[home].Entry(e.Line)
			if st != cache.Modified || owner != sk {
				v = append(v, fmt.Sprintf("LLC %d holds %#x in M but home dir says %v/owner %d", sk, e.Line, st, owner))
			}
			return true
		})
	}

	// Inclusion: every valid L1 line is present in its socket's LLC with
	// the core recorded as a sharer or owner.
	for core, l1 := range s.l1s {
		sk := s.SocketOf(core)
		lc := core % s.Cfg.CoresPerSocket
		l1.ForEach(func(e *cache.Entry) bool {
			le := s.LLCs[sk].store.Peek(e.Line)
			if le == nil {
				v = append(v, fmt.Sprintf("inclusion: core %d holds %#x not in LLC %d", core, e.Line, sk))
				return true
			}
			if le.Sharers&(1<<uint(lc)) == 0 && le.Owner != int8(lc) {
				v = append(v, fmt.Sprintf("local dir: core %d holds %#x but is not a recorded sharer", core, e.Line))
			}
			// An L1-writable line requires socket-level write permission.
			if e.State.Writable() && !le.State.Writable() {
				v = append(v, fmt.Sprintf("core %d holds %#x writable but LLC %d is %v", core, e.Line, sk, le.State))
			}
			return true
		})
	}
	// Sorting keeps the report independent of the audits' walk order, so a
	// failing campaign produces the same journal artifacts on every run.
	sort.Strings(v)
	return v
}
