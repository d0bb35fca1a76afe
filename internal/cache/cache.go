// Package cache provides the set-associative storage arrays used throughout
// the memory hierarchy: per-core L1s, the per-socket shared LLC, the cached
// directory, and the Dvé replica directory. It stores per-line coherence
// state and metadata with LRU replacement, and provides MSHR bookkeeping for
// in-flight transactions.
package cache

import "dve/internal/topology"

// State is a coherence state. The hierarchy uses MOSI at the global level
// (Table II: "hierarchical MOESI/MOSI") plus the replica directory's RM
// state from the deny-based protocol (Section V-C2).
type State uint8

const (
	Invalid State = iota
	Shared
	Owned
	Modified
	// RemoteModified is used only by the deny-based replica directory: the
	// home side holds the line writable, so the local replica is stale.
	RemoteModified
)

// String returns the one-letter protocol name for the state.
func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Owned:
		return "O"
	case Modified:
		return "M"
	case RemoteModified:
		return "RM"
	}
	return "?"
}

// Readable reports whether a copy in this state may service loads.
func (s State) Readable() bool { return s == Shared || s == Owned || s == Modified }

// Writable reports whether a copy in this state may service stores.
func (s State) Writable() bool { return s == Modified }

// Entry is one cache line's metadata.
type Entry struct {
	Line    topology.Line
	State   State
	Dirty   bool
	Sharers uint64 // bit vector: cores (local dir) or sockets (global dir)
	Owner   int8   // owning core/socket, -1 if none
	lru     uint64
}

// Cache is a set-associative array with LRU replacement. The zero value is
// unusable; construct with New.
type Cache struct {
	sets     [][]Entry
	ways     int
	setMask  uint64
	lineSz   uint64
	tick     uint64
	Hits     uint64
	Misses   uint64
	Evicts   uint64
	Capacity int
	fa       *faIndex // non-nil for a fully associative cache
}

// New builds a cache with the given total size, associativity and line size.
// sizeBytes/(ways*lineBytes) must be a power of two (the set count).
func New(sizeBytes, ways, lineBytes int) *Cache {
	nsets := sizeBytes / (ways * lineBytes)
	if nsets <= 0 || nsets&(nsets-1) != 0 {
		panic("cache: set count must be a positive power of two")
	}
	c := &Cache{
		sets:     make([][]Entry, nsets),
		ways:     ways,
		setMask:  uint64(nsets - 1),
		lineSz:   uint64(lineBytes),
		Capacity: nsets * ways,
	}
	// Every set is a window of one backing array; the 3-index slice caps
	// each window at its own ways, so an append can never spill into the
	// next set.
	backing := make([]Entry, nsets*ways)
	for i := range c.sets {
		c.sets[i] = backing[i*ways : i*ways : (i+1)*ways]
	}
	return c
}

// NewFullyAssoc builds a fully associative structure with the given number
// of entries (used for the replica directory: "fully associative 2K entry
// structure", Section VI). Lookup, Peek, Insert, Invalidate and Clear run
// in O(1) through an index (fullyassoc.go) and pick the same
// victims as a linear LRU scan. The index relies on one contract: an
// entry's State becomes Invalid only through Invalidate or Clear, and its
// Line never changes, so a caller (or a ForEach callback) must not write
// either field.
func NewFullyAssoc(entries, lineBytes int) *Cache {
	fa := newFAIndex(entries)
	return &Cache{
		sets:     [][]Entry{fa.slots},
		ways:     entries,
		lineSz:   uint64(lineBytes),
		Capacity: entries,
		fa:       fa,
	}
}

func (c *Cache) setOf(l topology.Line) int {
	return int((uint64(l) / c.lineSz) & c.setMask)
}

// Lookup returns the entry for a line, or nil on miss. It updates LRU and
// hit/miss counters.
func (c *Cache) Lookup(l topology.Line) *Entry {
	if c.fa != nil {
		s := c.fa.find(l)
		if s < 0 {
			c.Misses++
			return nil
		}
		c.fa.touch(s)
		c.Hits++
		return &c.fa.slots[s]
	}
	set := c.sets[c.setOf(l)]
	for i := range set {
		if set[i].Line == l && set[i].State != Invalid {
			c.tick++
			set[i].lru = c.tick
			c.Hits++
			return &set[i]
		}
	}
	c.Misses++
	return nil
}

// Peek returns the entry without touching LRU or counters.
func (c *Cache) Peek(l topology.Line) *Entry {
	if c.fa != nil {
		if s := c.fa.find(l); s >= 0 {
			return &c.fa.slots[s]
		}
		return nil
	}
	set := c.sets[c.setOf(l)]
	for i := range set {
		if set[i].Line == l && set[i].State != Invalid {
			return &set[i]
		}
	}
	return nil
}

// Insert adds a line in the given state, evicting the LRU entry of the set if
// needed. It returns the inserted entry and, if an eviction occurred, a copy
// of the victim (valid bit via ok).
func (c *Cache) Insert(l topology.Line, s State) (e *Entry, victim Entry, ok bool) {
	if c.fa != nil {
		return c.faInsert(l, s)
	}
	si := c.setOf(l)
	set := c.sets[si]
	// Reuse an invalid slot or replace in place if line already present.
	for i := range set {
		if set[i].Line == l && set[i].State != Invalid {
			set[i].State = s
			c.tick++
			set[i].lru = c.tick
			return &set[i], Entry{}, false
		}
	}
	for i := range set {
		if set[i].State == Invalid {
			c.tick++
			set[i] = Entry{Line: l, State: s, Owner: -1, lru: c.tick}
			return &set[i], Entry{}, false
		}
	}
	if len(set) < c.ways {
		c.tick++
		c.sets[si] = append(set, Entry{Line: l, State: s, Owner: -1, lru: c.tick})
		return &c.sets[si][len(c.sets[si])-1], Entry{}, false
	}
	// Evict LRU.
	vi := 0
	for i := 1; i < len(set); i++ {
		if set[i].lru < set[vi].lru {
			vi = i
		}
	}
	victim = set[vi]
	c.Evicts++
	c.tick++
	set[vi] = Entry{Line: l, State: s, Owner: -1, lru: c.tick}
	return &set[vi], victim, true
}

// Invalidate removes a line; it reports whether the line was present.
func (c *Cache) Invalidate(l topology.Line) bool {
	if c.fa != nil {
		return c.fa.invalidate(l)
	}
	set := c.sets[c.setOf(l)]
	for i := range set {
		if set[i].Line == l && set[i].State != Invalid {
			set[i].State = Invalid
			return true
		}
	}
	return false
}

// ForEach calls fn for every valid entry; fn may mutate the entry. If fn
// returns false iteration stops.
func (c *Cache) ForEach(fn func(e *Entry) bool) {
	for _, set := range c.sets {
		for i := range set {
			if set[i].State != Invalid {
				if !fn(&set[i]) {
					return
				}
			}
		}
	}
}

// Clear invalidates every entry (used by the dynamic protocol's drain phase).
func (c *Cache) Clear() {
	if c.fa != nil {
		c.fa.reset()
		return
	}
	for _, set := range c.sets {
		for i := range set {
			set[i].State = Invalid
		}
	}
}
