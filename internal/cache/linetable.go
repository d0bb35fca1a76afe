package cache

import "math/bits"

// LineIndex is an open-addressed hash index from line-like keys to their
// positions in a key slice that its owner keeps. A table slot holds a
// position+1, and 0 marks an empty slot. A probe starts at the key's
// Fibonacci hash and runs linearly. The table doubles before it passes half
// load, and Remove shifts later members of a probe run back into the hole,
// so there are no tombstones.
//
// The index stores no keys: every method takes the owner's slice, which
// must hold each indexed key at its recorded position. Nothing iterates the
// table, so hash order never reaches a simulated result. The zero value is
// unusable; construct with NewLineIndex.
type LineIndex[K ~uint64] struct {
	table []int32
	shift uint // 64 - log2(len(table))
	n     int  // keys indexed
}

// minIndexBits sizes the table a zero-hint index starts from.
const minIndexBits = 3

// NewLineIndex returns an index that holds hint keys without growing.
func NewLineIndex[K ~uint64](hint int) LineIndex[K] {
	var x LineIndex[K]
	x.alloc(hint)
	return x
}

// alloc replaces the table with an empty one of at least 2*hint slots.
func (x *LineIndex[K]) alloc(hint int) {
	tbits := max(bits.Len(uint(max(2*hint-1, 1))), minIndexBits)
	x.table = make([]int32, 1<<tbits)
	x.shift = uint(64 - tbits)
}

// home is the table slot a key's probe starts at.
func (x *LineIndex[K]) home(k K) int {
	return int((uint64(k) * 0x9E3779B97F4A7C15) >> x.shift)
}

// slot returns the table slot holding key k, or -1 if k is absent.
func (x *LineIndex[K]) slot(keys []K, k K) int {
	mask := len(x.table) - 1
	for i := x.home(k); ; i = (i + 1) & mask {
		p := x.table[i]
		if p == 0 {
			return -1
		}
		if keys[p-1] == k {
			return i
		}
	}
}

// Find returns the position of key k, or -1 if k is absent. It repeats
// slot's loop so that it stays small enough to inline.
func (x *LineIndex[K]) Find(keys []K, k K) int {
	mask := len(x.table) - 1
	for i := x.home(k); ; i = (i + 1) & mask {
		p := x.table[i]
		if p == 0 {
			return -1
		}
		if keys[p-1] == k {
			return int(p) - 1
		}
	}
}

// Insert returns the position of key k. If k is absent it is recorded at
// pos, added is true, and the caller must store k at keys[pos] before the
// next call.
func (x *LineIndex[K]) Insert(keys []K, k K, pos int) (at int, added bool) {
	if 2*(x.n+1) > len(x.table) {
		x.grow(keys)
	}
	mask := len(x.table) - 1
	i := x.home(k)
	for ; x.table[i] != 0; i = (i + 1) & mask {
		if p := x.table[i]; keys[p-1] == k {
			return int(p) - 1, false
		}
	}
	x.table[i] = int32(pos + 1)
	x.n++
	return pos, true
}

// grow doubles the table and re-inserts every indexed position.
func (x *LineIndex[K]) grow(keys []K) {
	old := x.table
	x.alloc(len(old))
	mask := len(x.table) - 1
	for _, p := range old {
		if p == 0 {
			continue
		}
		i := x.home(keys[p-1])
		for x.table[i] != 0 {
			i = (i + 1) & mask
		}
		x.table[i] = p
	}
}

// Remove unindexes key k and returns the position it had, or -1 if k was
// absent.
func (x *LineIndex[K]) Remove(keys []K, k K) int {
	i := x.slot(keys, k)
	if i < 0 {
		return -1
	}
	pos := int(x.table[i]) - 1
	mask := len(x.table) - 1
	for j := i; ; {
		j = (j + 1) & mask
		p := x.table[j]
		if p == 0 {
			break
		}
		// The member at j may fill the hole unless its home lies
		// cyclically in (i, j].
		if h := x.home(keys[p-1]); (j-h)&mask >= (j-i)&mask {
			x.table[i] = p
			i = j
		}
	}
	x.table[i] = 0
	x.n--
	return pos
}

// move records that indexed key k, found at its current position, now
// lives at position to.
func (x *LineIndex[K]) move(keys []K, k K, to int) {
	x.table[x.slot(keys, k)] = int32(to + 1)
}

// Clear unindexes every key and keeps the table's size.
func (x *LineIndex[K]) Clear() {
	clear(x.table)
	x.n = 0
}

// LineTable maps line-like keys to values. Keys and values sit densely in
// parallel slices that a LineIndex indexes, so a lookup probes an int32
// table and compares keys, and a table of n keys holds about n values
// however many keys have come and gone. Delete moves the last pair into
// the hole. A pointer that Get or Put returns is valid only until the next
// Put, Delete or Clear. The zero value is unusable; construct with
// NewLineTable.
type LineTable[K ~uint64, V any] struct {
	idx  LineIndex[K]
	keys []K
	vals []V
}

// NewLineTable returns a table that holds hint keys without growing.
func NewLineTable[K ~uint64, V any](hint int) LineTable[K, V] {
	return LineTable[K, V]{
		idx:  NewLineIndex[K](hint),
		keys: make([]K, 0, hint),
		vals: make([]V, 0, hint),
	}
}

// Len returns the number of keys.
func (t *LineTable[K, V]) Len() int { return len(t.keys) }

// Get returns a pointer to key k's value, or nil if k is absent.
func (t *LineTable[K, V]) Get(k K) *V {
	if i := t.idx.Find(t.keys, k); i >= 0 {
		return &t.vals[i]
	}
	return nil
}

// Put returns a pointer to key k's value. If k was absent it is added with
// the zero value and added is true.
func (t *LineTable[K, V]) Put(k K) (v *V, added bool) {
	i, added := t.idx.Insert(t.keys, k, len(t.keys))
	if added {
		var zero V
		t.keys = append(t.keys, k)
		t.vals = append(t.vals, zero)
	}
	return &t.vals[i], added
}

// Set stores v as key k's value.
func (t *LineTable[K, V]) Set(k K, v V) {
	p, _ := t.Put(k)
	*p = v
}

// Delete removes key k and returns its value; ok is false if k was absent.
// The table keeps no reference to the returned value.
func (t *LineTable[K, V]) Delete(k K) (v V, ok bool) {
	i := t.idx.Remove(t.keys, k)
	if i < 0 {
		return v, false
	}
	v = t.vals[i]
	last := len(t.keys) - 1
	if i != last {
		t.idx.move(t.keys, t.keys[last], i)
		t.keys[i], t.vals[i] = t.keys[last], t.vals[last]
	}
	var zero V
	t.vals[last] = zero
	t.keys, t.vals = t.keys[:last], t.vals[:last]
	return v, true
}

// Clear removes every key and keeps the table's capacity.
func (t *LineTable[K, V]) Clear() {
	t.idx.Clear()
	clear(t.vals)
	t.keys, t.vals = t.keys[:0], t.vals[:0]
}
