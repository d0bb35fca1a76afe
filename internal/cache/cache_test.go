package cache

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"dve/internal/topology"
)

func line(n uint64) topology.Line { return topology.Line(n * 64) }

func TestLookupMissThenHit(t *testing.T) {
	c := New(1024, 2, 64) // 8 sets x 2 ways
	if c.Lookup(line(1)) != nil {
		t.Fatal("unexpected hit in empty cache")
	}
	c.Insert(line(1), Shared)
	e := c.Lookup(line(1))
	if e == nil || e.State != Shared {
		t.Fatal("expected hit in Shared")
	}
	if c.Hits != 1 || c.Misses != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1", c.Hits, c.Misses)
	}
}

func TestInsertEvictsLRU(t *testing.T) {
	c := New(128, 2, 64) // 1 set x 2 ways
	c.Insert(line(0), Shared)
	c.Insert(line(1), Modified)
	c.Lookup(line(0)) // touch 0, making 1 the LRU
	_, victim, ok := c.Insert(line(2), Shared)
	if !ok {
		t.Fatal("expected eviction")
	}
	if victim.Line != line(1) || victim.State != Modified {
		t.Fatalf("evicted %v/%v, want line 1 in M", victim.Line, victim.State)
	}
	if c.Peek(line(0)) == nil || c.Peek(line(2)) == nil {
		t.Fatal("wrong resident set after eviction")
	}
}

// TestSetsShareOneBacking pins New's layout: every set is a window of one
// backing array, capped at its own ways, so filling a set never writes into
// its neighbour.
func TestSetsShareOneBacking(t *testing.T) {
	const sets, ways = 8, 2
	c := New(sets*ways*64, ways, 64)
	for i, set := range c.sets {
		if len(set) != 0 || cap(set) != ways {
			t.Fatalf("set %d: len %d cap %d, want 0 and %d", i, len(set), cap(set), ways)
		}
	}
	// Fill set 0 past its ways, then set 1: set 1 must still hold exactly
	// its own lines.
	for n := uint64(0); n < 3*ways; n++ {
		c.Insert(line(n*sets), Shared)
	}
	for n := uint64(0); n < ways; n++ {
		c.Insert(line(1+n*sets), Modified)
	}
	for s := 0; s < 2; s++ {
		if len(c.sets[s]) != ways {
			t.Fatalf("set %d holds %d lines, want %d", s, len(c.sets[s]), ways)
		}
		for i, e := range c.sets[s] {
			if c.setOf(e.Line) != s {
				t.Fatalf("set %d way %d holds %#x of set %d", s, i, e.Line, c.setOf(e.Line))
			}
		}
	}
}

func TestInsertExistingUpgrades(t *testing.T) {
	c := New(1024, 2, 64)
	c.Insert(line(5), Shared)
	e, _, ok := c.Insert(line(5), Modified)
	if ok {
		t.Fatal("re-insert should not evict")
	}
	if e.State != Modified {
		t.Fatalf("state = %v, want M", e.State)
	}
	if occupancy(c) != 1 {
		t.Fatalf("occupancy = %d, want 1", occupancy(c))
	}
}

func TestInvalidate(t *testing.T) {
	c := New(1024, 2, 64)
	c.Insert(line(3), Owned)
	if !c.Invalidate(line(3)) {
		t.Fatal("Invalidate missed a resident line")
	}
	if c.Invalidate(line(3)) {
		t.Fatal("Invalidate hit an invalid line")
	}
	if c.Lookup(line(3)) != nil {
		t.Fatal("line readable after invalidate")
	}
}

func TestFullyAssoc(t *testing.T) {
	c := NewFullyAssoc(4, 64)
	for i := uint64(0); i < 4; i++ {
		c.Insert(line(i*1000), Shared) // wildly different sets if indexed
	}
	if occupancy(c) != 4 {
		t.Fatalf("occupancy = %d, want 4", occupancy(c))
	}
	_, victim, ok := c.Insert(line(9999), Shared)
	if !ok || victim.Line != line(0) {
		t.Fatalf("expected LRU eviction of line 0, got %v/%v", victim.Line, ok)
	}
}

func TestForEachAndClear(t *testing.T) {
	c := NewFullyAssoc(8, 64)
	for i := uint64(0); i < 5; i++ {
		c.Insert(line(i), Shared)
	}
	n := 0
	c.ForEach(func(e *Entry) bool { n++; return true })
	if n != 5 {
		t.Fatalf("ForEach visited %d, want 5", n)
	}
	n = 0
	c.ForEach(func(e *Entry) bool { n++; return false })
	if n != 1 {
		t.Fatalf("ForEach early-stop visited %d, want 1", n)
	}
	c.Clear()
	if occupancy(c) != 0 {
		t.Fatal("Clear left valid entries")
	}
}

func TestStateHelpers(t *testing.T) {
	if !Shared.Readable() || !Modified.Readable() || !Owned.Readable() {
		t.Fatal("S/M/O must be readable")
	}
	if Invalid.Readable() || RemoteModified.Readable() {
		t.Fatal("I/RM must not be readable")
	}
	if !Modified.Writable() || Shared.Writable() {
		t.Fatal("writable wrong")
	}
	for s, want := range map[State]string{Invalid: "I", Shared: "S", Owned: "O", Modified: "M", RemoteModified: "RM", State(9): "?"} {
		if s.String() != want {
			t.Errorf("State(%d).String() = %q, want %q", s, s.String(), want)
		}
	}
}

func TestNewPanicsOnBadGeometry(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-power-of-two sets")
		}
	}()
	New(192, 1, 64) // 3 sets
}

// Property: the cache never holds more than capacity entries and a just-
// inserted line is always resident.
func TestCapacityProperty(t *testing.T) {
	f := func(lines []uint16) bool {
		c := New(2048, 4, 64) // 8 sets x 4 ways
		for _, ln := range lines {
			l := line(uint64(ln))
			c.Insert(l, Shared)
			if c.Peek(l) == nil {
				return false
			}
			if occupancy(c) > c.Capacity {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestMSHRLifecycle(t *testing.T) {
	m := NewMSHR()
	l := line(1)
	if m.Busy(l) {
		t.Fatal("fresh MSHR busy")
	}
	m.Allocate(l)
	if !m.Busy(l) {
		t.Fatal("allocated line not busy")
	}
	ran := []int{}
	m.Defer(l, func() { ran = append(ran, 1) })
	m.Defer(l, func() { ran = append(ran, 2) })
	for _, fn := range m.Release(l) {
		fn()
	}
	if len(ran) != 2 || ran[0] != 1 || ran[1] != 2 {
		t.Fatalf("waiters ran %v, want [1 2]", ran)
	}
	if m.Busy(l) {
		t.Fatal("busy after release")
	}
}

func TestMSHRPanics(t *testing.T) {
	m := NewMSHR()
	m.Allocate(line(1))
	func() {
		defer func() {
			if recover() == nil {
				t.Error("double allocate did not panic")
			}
		}()
		m.Allocate(line(1))
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("defer without allocation did not panic")
			}
		}()
		m.Defer(line(2), func() {})
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("release without allocation did not panic")
			}
		}()
		m.Release(line(3))
	}()
}

// linearFA is the fully associative cache as one set of LRU-tick entries
// scanned linearly: the reference the indexed cache must agree with.
type linearFA struct {
	set                  []Entry
	ways                 int
	tick                 uint64
	hits, misses, evicts uint64
}

func (r *linearFA) find(l topology.Line) int {
	for i := range r.set {
		if r.set[i].Line == l && r.set[i].State != Invalid {
			return i
		}
	}
	return -1
}

func (r *linearFA) lru() int {
	vi := 0
	for i := 1; i < len(r.set); i++ {
		if r.set[i].lru < r.set[vi].lru {
			vi = i
		}
	}
	return vi
}

func (r *linearFA) lookup(l topology.Line) *Entry {
	i := r.find(l)
	if i < 0 {
		r.misses++
		return nil
	}
	r.tick++
	r.set[i].lru = r.tick
	r.hits++
	return &r.set[i]
}

func (r *linearFA) peek(l topology.Line) *Entry {
	if i := r.find(l); i >= 0 {
		return &r.set[i]
	}
	return nil
}

func (r *linearFA) insert(l topology.Line, s State) (*Entry, Entry, bool) {
	r.tick++
	if i := r.find(l); i >= 0 {
		r.set[i].State = s
		r.set[i].lru = r.tick
		return &r.set[i], Entry{}, false
	}
	fresh := Entry{Line: l, State: s, Owner: -1, lru: r.tick}
	for i := range r.set {
		if r.set[i].State == Invalid {
			r.set[i] = fresh
			return &r.set[i], Entry{}, false
		}
	}
	if len(r.set) < r.ways {
		r.set = append(r.set, fresh)
		return &r.set[len(r.set)-1], Entry{}, false
	}
	vi := r.lru()
	victim := r.set[vi]
	r.evicts++
	r.set[vi] = fresh
	return &r.set[vi], victim, true
}

func (r *linearFA) invalidate(l topology.Line) bool {
	if i := r.find(l); i >= 0 {
		r.set[i].State = Invalid
		return true
	}
	return false
}

func (r *linearFA) occupancy() int {
	n := 0
	for i := range r.set {
		if r.set[i].State != Invalid {
			n++
		}
	}
	return n
}

func (r *linearFA) clear() {
	for i := range r.set {
		r.set[i].State = Invalid
	}
}

// occupancy counts c's valid entries.
func occupancy(c *Cache) int {
	if c.fa != nil {
		return c.Capacity - len(c.fa.free)
	}
	n := 0
	c.ForEach(func(*Entry) bool { n++; return true })
	return n
}

// public drops the unexported LRU tick, which only the reference keeps.
func public(e Entry) Entry {
	e.lru = 0
	return e
}

// TestFullyAssocMatchesLinearScan drives the indexed fully associative
// cache and the linear reference with the same seeded random calls and
// checks, after every call, that they return the same entries and victims,
// count the same hits, misses and evictions, and hold the same lines.
func TestFullyAssocMatchesLinearScan(t *testing.T) {
	for _, capacity := range []int{1, 4, 2048, 4096} {
		ops := 4000 + 10*capacity // long enough to fill and evict twice
		c := NewFullyAssoc(capacity, 64)
		ref := &linearFA{ways: capacity}
		rng := rand.New(rand.NewSource(int64(capacity)))
		keys := uint64(2*capacity + 2) // evictions once full
		var evictsAtClear uint64
		for step := 0; step < ops; step++ {
			l := line(rng.Uint64() % keys)
			where := func(call string) string {
				return fmt.Sprintf("capacity %d step %d: %s(%#x)", capacity, step, call, uint64(l))
			}
			sameEntry := func(call string, got, want *Entry) {
				if (got == nil) != (want == nil) || got != nil && public(*got) != public(*want) {
					t.Fatalf("%s = %+v, want %+v", where(call), got, want)
				}
			}
			switch k := rng.Intn(100); {
			case step == ops/2:
				evictsAtClear = c.Evicts
				c.Clear()
				ref.clear()
				for i := range ref.set { // every line resident before
					sameEntry("Peek after Clear", c.Peek(ref.set[i].Line), nil)
				}
			case k < 35:
				got, want := c.Lookup(l), ref.lookup(l)
				sameEntry("Lookup", got, want)
				if got != nil && rng.Intn(4) == 0 { // metadata must survive later calls
					got.Dirty, want.Dirty = true, true
					got.Sharers, want.Sharers = uint64(step), uint64(step)
					got.Owner, want.Owner = int8(step%8), int8(step%8)
				}
			case k < 43:
				sameEntry("Peek", c.Peek(l), ref.peek(l))
			case k < 80:
				st := State(1 + rng.Intn(4))
				got, gv, gok := c.Insert(l, st)
				want, wv, wok := ref.insert(l, st)
				sameEntry("Insert", got, want)
				if gok != wok || public(gv) != public(wv) {
					t.Fatalf("%s victim = %+v/%v, want %+v/%v", where("Insert"), gv, gok, wv, wok)
				}
			default:
				if got, want := c.Invalidate(l), ref.invalidate(l); got != want {
					t.Fatalf("%s = %v, want %v", where("Invalidate"), got, want)
				}
			}
			if c.Hits != ref.hits || c.Misses != ref.misses || c.Evicts != ref.evicts {
				t.Fatalf("%s: hits/misses/evicts %d/%d/%d, want %d/%d/%d", where("after"),
					c.Hits, c.Misses, c.Evicts, ref.hits, ref.misses, ref.evicts)
			}
			if got, want := occupancy(c), ref.occupancy(); got != want {
				t.Fatalf("%s: occupancy %d, want %d", where("after"), got, want)
			}
			if testing.Short() && step%64 != 0 && step != ops-1 {
				continue // the O(capacity) sweep dominates under -race
			}
			for i := range ref.set {
				if want := &ref.set[i]; want.State != Invalid {
					sameEntry("resident Peek", c.Peek(want.Line), want)
				}
			}
		}
		if evictsAtClear == 0 || c.Evicts == evictsAtClear {
			t.Fatalf("capacity %d: %d evictions before Clear, %d after; want both nonzero",
				capacity, evictsAtClear, c.Evicts-evictsAtClear)
		}
	}
}

// faMix is a miss-heavy replica-directory access pattern: look a line up,
// insert it on a miss, and invalidate one line in eight.
func faMix(c *Cache, x *uint64) {
	for i := 0; i < 64; i++ {
		*x = *x*6364136223846793005 + 1442695040888963407
		l := line(*x >> 52) // 4096 lines for 2048 entries
		if i%8 == 7 {
			c.Invalidate(l)
		} else if c.Lookup(l) == nil {
			c.Insert(l, Shared)
		}
	}
}

// TestFullyAssocSteadyStateAllocs pins the index at zero allocations once
// the replica directory is warm.
func TestFullyAssocSteadyStateAllocs(t *testing.T) {
	c := NewFullyAssoc(2048, 64)
	x := uint64(1)
	for i := 0; i < 256; i++ {
		faMix(c, &x)
	}
	if a := testing.AllocsPerRun(1000, func() { faMix(c, &x) }); a != 0 {
		t.Fatalf("%.2f allocs per 64-access mix, want 0", a)
	}
}

// BenchmarkFullyAssoc measures one access of the faMix pattern on a warm
// 2048-entry replica directory.
func BenchmarkFullyAssoc(b *testing.B) {
	c := NewFullyAssoc(2048, 64)
	x := uint64(1)
	for i := 0; i < 256; i++ {
		faMix(c, &x)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n += 64 {
		faMix(c, &x)
	}
}

// TestMSHRReentrantWaiters pins the hand-off between Release and the
// waiters it returns: a waiter may re-allocate the line and defer more
// waiters than the released list holds while the caller is still walking
// that list. Every waiter must run exactly once, generation by generation
// in FIFO order, so the new list must never share the released one's
// backing array.
func TestMSHRReentrantWaiters(t *testing.T) {
	m := NewMSHR()
	l := line(1)
	var ran []string
	waiter := func(name string) func() {
		return func() { ran = append(ran, name) }
	}
	m.Allocate(l)
	m.Defer(l, func() {
		ran = append(ran, "a0")
		m.Allocate(l)
		for _, n := range []string{"b0", "b1", "b2", "b3"} {
			m.Defer(l, waiter(n))
		}
	})
	m.Defer(l, func() {
		ran = append(ran, "a1")
		m.Defer(l, waiter("b4"))
	})
	m.Defer(l, waiter("a2"))
	for _, w := range m.Release(l) {
		w()
	}
	for _, w := range m.Release(l) {
		w()
	}
	if m.Busy(l) || m.waiters.Len() != 0 {
		t.Fatal("line still busy after both generations released")
	}
	want := []string{"a0", "a1", "a2", "b0", "b1", "b2", "b3", "b4"}
	if fmt.Sprint(ran) != fmt.Sprint(want) {
		t.Fatalf("waiters ran %v, want %v", ran, want)
	}
}
