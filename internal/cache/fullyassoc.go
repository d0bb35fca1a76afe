package cache

import (
	"math/bits"

	"dve/internal/topology"
)

// faIndex makes every operation of a fully associative cache O(1). The
// entries live in slots allocated up front; an open-addressed table maps a
// resident line to its slot, a doubly linked list orders the valid slots
// from least (head) to most (tail) recently used, and a stack holds the
// invalid ones.
//
// It picks the same victims as a linear scan for the minimum LRU tick:
// every touch moves a slot to the tail, a free slot is filled before any
// eviction, and ticks are unique, so the head is the minimum-tick entry.
type faIndex struct {
	slots      []Entry
	table      []int32 // slot+1 of a resident line, 0 when empty; linear probing
	mask       int     // len(table)-1
	shift      uint    // 64 - log2(len(table))
	prev, next []int32 // LRU list links, -1 at either end
	head, tail int32   // least and most recently used slot, -1 when empty
	free       []int32 // invalid slots; the top is filled next
}

func newFAIndex(entries int) *faIndex {
	// At most half full, so a probe run stays short.
	tbits := bits.Len(uint(max(2*entries-1, 1)))
	fa := &faIndex{
		slots: make([]Entry, entries),
		table: make([]int32, 1<<tbits),
		mask:  1<<tbits - 1,
		shift: uint(64 - tbits),
		prev:  make([]int32, entries),
		next:  make([]int32, entries),
		head:  -1, // an empty list for reset to walk
		free:  make([]int32, 0, entries),
	}
	fa.reset()
	return fa
}

// reset invalidates the valid slots in LRU order and leaves the index as
// newFAIndex built it: an empty table and list, and every slot stacked as
// free, lowest on top. Slot reuse after a reset thus never depends on what
// was resident.
func (fa *faIndex) reset() {
	for s := fa.head; s >= 0; s = fa.next[s] {
		fa.slots[s].State = Invalid
	}
	clear(fa.table)
	fa.head, fa.tail = -1, -1
	fa.free = fa.free[:0]
	for s := len(fa.slots) - 1; s >= 0; s-- {
		fa.free = append(fa.free, int32(s))
	}
}

// home is the table position a line's probe starts at (Fibonacci hashing).
func (fa *faIndex) home(l topology.Line) int {
	return int((uint64(l) * 0x9E3779B97F4A7C15) >> fa.shift)
}

// pos returns the table position holding line l, or -1 if l is absent.
func (fa *faIndex) pos(l topology.Line) int {
	for i := fa.home(l); ; i = (i + 1) & fa.mask {
		s := fa.table[i]
		if s == 0 {
			return -1
		}
		if fa.slots[s-1].Line == l {
			return i
		}
	}
}

// find returns the slot holding line l, or -1 if l is absent.
func (fa *faIndex) find(l topology.Line) int32 {
	if i := fa.pos(l); i >= 0 {
		return fa.table[i] - 1
	}
	return -1
}

// add records that slot s holds line l, which must be absent.
func (fa *faIndex) add(l topology.Line, s int32) {
	i := fa.home(l)
	for fa.table[i] != 0 {
		i = (i + 1) & fa.mask
	}
	fa.table[i] = s + 1
}

// removeAt empties table position i and shifts later members of its probe
// run back into the hole, so lookups never meet a tombstone.
func (fa *faIndex) removeAt(i int) {
	for j := i; ; {
		j = (j + 1) & fa.mask
		s := fa.table[j]
		if s == 0 {
			break
		}
		// The member at j may fill the hole unless its home lies
		// cyclically in (i, j].
		if h := fa.home(fa.slots[s-1].Line); (j-h)&fa.mask >= (j-i)&fa.mask {
			fa.table[i] = s
			i = j
		}
	}
	fa.table[i] = 0
}

func (fa *faIndex) unlink(s int32) {
	p, n := fa.prev[s], fa.next[s]
	if p >= 0 {
		fa.next[p] = n
	} else {
		fa.head = n
	}
	if n >= 0 {
		fa.prev[n] = p
	} else {
		fa.tail = p
	}
}

func (fa *faIndex) pushTail(s int32) {
	fa.prev[s], fa.next[s] = fa.tail, -1
	if fa.tail >= 0 {
		fa.next[fa.tail] = s
	} else {
		fa.head = s
	}
	fa.tail = s
}

// touch makes slot s the most recently used.
func (fa *faIndex) touch(s int32) {
	if s != fa.tail {
		fa.unlink(s)
		fa.pushTail(s)
	}
}

func (c *Cache) faInsert(l topology.Line, st State) (e *Entry, victim Entry, ok bool) {
	fa := c.fa
	if s := fa.find(l); s >= 0 {
		fa.slots[s].State = st
		fa.touch(s)
		return &fa.slots[s], Entry{}, false
	}
	var s int32
	if n := len(fa.free); n > 0 {
		s = fa.free[n-1]
		fa.free = fa.free[:n-1]
	} else {
		s = fa.head
		victim, ok = fa.slots[s], true
		c.Evicts++
		fa.unlink(s)
		fa.removeAt(fa.pos(victim.Line))
	}
	fa.slots[s] = Entry{Line: l, State: st, Owner: -1}
	fa.pushTail(s)
	fa.add(l, s)
	return &fa.slots[s], victim, ok
}

// invalidate removes line l; it reports whether l was present.
func (fa *faIndex) invalidate(l topology.Line) bool {
	i := fa.pos(l)
	if i < 0 {
		return false
	}
	s := fa.table[i] - 1
	fa.removeAt(i)
	fa.unlink(s)
	fa.slots[s].State = Invalid
	fa.free = append(fa.free, s)
	return true
}
