package cache

import (
	"math/rand"
	"testing"

	"dve/internal/topology"
)

// wrapKeys returns n keys whose probes all start at the last slot of an
// index built with hint, so inserting them wraps the probe run around the
// table end.
func wrapKeys(hint, n int) []uint64 {
	x := NewLineIndex[uint64](hint)
	last := len(x.table) - 1
	var keys []uint64
	for k := uint64(1); len(keys) < n; k++ {
		if x.home(k) == last {
			keys = append(keys, k)
		}
	}
	return keys
}

// tableKeys draws keys from a small universe so that puts hit present keys
// and deletes hit absent ones often. It includes key 0, keys that collide
// at the table end, and line-aligned and arbitrary 64-bit keys.
func tableKeys(r *rand.Rand) []uint64 {
	keys := append([]uint64{0}, wrapKeys(0, 4)...)
	for i := 0; i < 60; i++ {
		keys = append(keys, uint64(i)*64, r.Uint64())
	}
	return keys
}

// TestLineTableMatchesMap runs a LineTable against a Go map through random
// Put, Get, Delete and Clear, growing from hint 0.
func TestLineTableMatchesMap(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	keys := tableKeys(r)
	tb := NewLineTable[uint64, int](0)
	ref := map[uint64]int{}
	for op := 0; op < 50_000; op++ {
		k := keys[r.Intn(len(keys))]
		switch c := r.Intn(100); {
		case c < 45:
			p, added := tb.Put(k)
			_, had := ref[k]
			if added == had {
				t.Fatalf("op %d: Put(%#x) added=%v, map had=%v", op, k, added, had)
			}
			if *p != ref[k] {
				t.Fatalf("op %d: Put(%#x) value %d, map %d", op, k, *p, ref[k])
			}
			*p = op
			ref[k] = op
		case c < 70:
			v, ok := tb.Delete(k)
			want, had := ref[k]
			if ok != had || v != want {
				t.Fatalf("op %d: Delete(%#x) = %d,%v, map %d,%v", op, k, v, ok, want, had)
			}
			delete(ref, k)
		case c < 99:
			p := tb.Get(k)
			want, had := ref[k]
			if (p != nil) != had || (p != nil && *p != want) {
				t.Fatalf("op %d: Get(%#x) = %v, map %d,%v", op, k, p, want, had)
			}
		default:
			tb.Clear()
			clear(ref)
		}
		if tb.Len() != len(ref) || tb.idx.n != len(ref) {
			t.Fatalf("op %d: Len %d (index %d), map %d", op, tb.Len(), tb.idx.n, len(ref))
		}
	}
	for _, k := range keys {
		p := tb.Get(k)
		if want, had := ref[k]; (p != nil) != had || (p != nil && *p != want) {
			t.Fatalf("final Get(%#x) = %v, map %d,%v", k, p, want, had)
		}
	}
}

// TestLineIndexMatchesMap drives a LineIndex the way faIndex does: the
// owner hands out positions from a free list and keeps the keys, and the
// index must agree with a Go map from key to position.
func TestLineIndexMatchesMap(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	keys := tableKeys(r)
	x := NewLineIndex[uint64](0)
	owned := make([]uint64, len(keys))
	var free []int
	freeAll := func() {
		free = free[:0]
		for p := len(owned) - 1; p >= 0; p-- {
			free = append(free, p)
		}
	}
	freeAll()
	ref := map[uint64]int{}
	for op := 0; op < 50_000; op++ {
		k := keys[r.Intn(len(keys))]
		switch c := r.Intn(100); {
		case c < 45:
			want, had := ref[k]
			if !had {
				want = free[len(free)-1]
			}
			at, added := x.Insert(owned, k, want)
			if added == had || at != want {
				t.Fatalf("op %d: Insert(%#x) = %d,%v, want %d,%v", op, k, at, added, want, !had)
			}
			if added {
				free = free[:len(free)-1]
				owned[at] = k
				ref[k] = at
			}
		case c < 70:
			want, had := ref[k]
			if !had {
				want = -1
			}
			if got := x.Remove(owned, k); got != want {
				t.Fatalf("op %d: Remove(%#x) = %d, want %d", op, k, got, want)
			}
			if had {
				free = append(free, want)
				delete(ref, k)
			}
		case c < 99:
			want, had := ref[k]
			if !had {
				want = -1
			}
			if got := x.Find(owned, k); got != want {
				t.Fatalf("op %d: Find(%#x) = %d, want %d", op, k, got, want)
			}
		default:
			x.Clear()
			freeAll()
			clear(ref)
		}
		if x.n != len(ref) {
			t.Fatalf("op %d: Len %d, map %d", op, x.n, len(ref))
		}
	}
}

// TestLineIndexWrapsTableEnd inserts keys that all hash to the last slot,
// so their run wraps to the table start, then deletes from the front of the
// run: the back-shift must carry the wrapped members across the end.
func TestLineIndexWrapsTableEnd(t *testing.T) {
	const hint = 4 // 8 slots, never grows below 4 keys
	keys := append(wrapKeys(hint, 3), 0)
	x := NewLineIndex[uint64](hint)
	for i, k := range keys {
		if _, added := x.Insert(keys, k, i); !added {
			t.Fatalf("key %#x reported present", k)
		}
	}
	if len(x.table) != 8 {
		t.Fatalf("table grew to %d slots", len(x.table))
	}
	// Key 0 homes at slot 0, which the wrapped run already occupies.
	if x.table[7] != 1 || x.table[0] != 2 || x.table[1] != 3 || x.table[2] != 4 {
		t.Fatalf("table %v, want run 7,0,1,2", x.table)
	}
	for i, k := range keys {
		if got := x.Remove(keys, k); got != i {
			t.Fatalf("Remove(%#x) = %d, want %d", k, got, i)
		}
		for j, rest := range keys[i+1:] {
			if got := x.Find(keys, rest); got != i+1+j {
				t.Fatalf("after removing %d keys Find(%#x) = %d, want %d (table %v)", i+1, rest, got, i+1+j, x.table)
			}
		}
	}
	for _, p := range x.table {
		if p != 0 {
			t.Fatalf("table %v not empty after removing every key", x.table)
		}
	}
}

// churn deletes the oldest of a fixed population of keys and puts a new
// one, so the table's population stays at len(ring).
func churn(tb *LineTable[topology.Line, uint32], ring []topology.Line, next *topology.Line, at *int) {
	tb.Delete(ring[*at])
	ring[*at] = *next
	p, _ := tb.Put(*next)
	*p++
	*next += 64
	*at = (*at + 1) % len(ring)
}

func newChurn(pop int) (*LineTable[topology.Line, uint32], []topology.Line, topology.Line) {
	tb := NewLineTable[topology.Line, uint32](0)
	ring := make([]topology.Line, pop)
	next := topology.Line(0)
	for i := range ring {
		ring[i] = next
		tb.Put(next)
		next += 64
	}
	return &tb, ring, next
}

// TestLineTableSteadyStateAllocs pins churn at a fixed population at zero
// allocations once the table has grown to it.
func TestLineTableSteadyStateAllocs(t *testing.T) {
	tb, ring, next := newChurn(1000)
	at := 0
	for i := 0; i < 2000; i++ {
		churn(tb, ring, &next, &at)
	}
	if a := testing.AllocsPerRun(1000, func() { churn(tb, ring, &next, &at) }); a != 0 {
		t.Fatalf("%.2f allocs per delete+put, want 0", a)
	}
}

// BenchmarkLineTable measures one Get of a present key, one of an absent
// key, and one delete+put at a fixed population of 64k lines.
func BenchmarkLineTable(b *testing.B) {
	tb, ring, next := newChurn(1 << 16)
	at := 0
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if tb.Get(ring[n&(1<<16-1)]) == nil || tb.Get(next+64) != nil {
			b.Fatal("lookup disagrees with the ring")
		}
		churn(tb, ring, &next, &at)
	}
}
