package cache

import "dve/internal/topology"

// faIndex makes every operation of a fully associative cache O(1). The
// entries live in slots allocated up front; a LineIndex over lines maps a
// resident line to its slot, a doubly linked list orders the valid slots
// from least (head) to most (tail) recently used, and a stack holds the
// invalid ones.
//
// It picks the same victims as a linear scan for the minimum LRU tick:
// every touch moves a slot to the tail, a free slot is filled before any
// eviction, and ticks are unique, so the head is the minimum-tick entry.
type faIndex struct {
	slots      []Entry
	lines      []topology.Line // slots[s].Line, the keys idx probes
	idx        LineIndex[topology.Line]
	prev, next []int32 // LRU list links, -1 at either end
	head, tail int32   // least and most recently used slot, -1 when empty
	free       []int32 // invalid slots; the top is filled next
}

func newFAIndex(entries int) *faIndex {
	fa := &faIndex{
		slots: make([]Entry, entries),
		lines: make([]topology.Line, entries),
		idx:   NewLineIndex[topology.Line](entries), // never grows
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
	fa.idx.Clear()
	fa.head, fa.tail = -1, -1
	fa.free = fa.free[:0]
	for s := len(fa.slots) - 1; s >= 0; s-- {
		fa.free = append(fa.free, int32(s))
	}
}

// find returns the slot holding line l, or -1 if l is absent.
func (fa *faIndex) find(l topology.Line) int32 {
	return int32(fa.idx.Find(fa.lines, l))
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
		fa.idx.Remove(fa.lines, victim.Line)
	}
	fa.slots[s] = Entry{Line: l, State: st, Owner: -1}
	fa.lines[s] = l
	fa.pushTail(s)
	fa.idx.Insert(fa.lines, l, int(s))
	return &fa.slots[s], victim, ok
}

// invalidate removes line l; it reports whether l was present.
func (fa *faIndex) invalidate(l topology.Line) bool {
	s := int32(fa.idx.Remove(fa.lines, l))
	if s < 0 {
		return false
	}
	fa.unlink(s)
	fa.slots[s].State = Invalid
	fa.free = append(fa.free, s)
	return true
}
