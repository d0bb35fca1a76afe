// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine maintains a pending-event set ordered by (time, sequence
// number). Events scheduled for the same cycle fire in the order they were
// scheduled, which makes every simulation run fully reproducible.
//
// # Pending-event structure
//
// The pending set is a two-level calendar queue tuned for the delay mix this
// simulator actually produces (cache/directory latencies of tens of cycles,
// link crossings of ~150, DRAM legs in between, and rare far-future daemon
// ticks like refresh):
//
//   - a near-future ring of ringSize one-cycle buckets covering the window
//     [ringBase, ringBase+ringSize); an event for cycle c lives in bucket
//     c&ringMask, and because the window is exactly ringSize cycles wide a
//     bucket only ever holds one cycle's events at a time;
//   - a far-future overflow min-heap (ordered by (when, seq)) for events
//     beyond the window; they migrate into the ring as the window advances,
//     before any same-cycle event can be scheduled directly, so bucket
//     insertion order always equals sequence order.
//
// Ring events live in one pooled node slab. Each bucket is a FIFO list of
// slab indices (first/last arrays inline in the Engine, index+1 with 0 for
// empty), so appending to a bucket and popping its head are O(1) and touch
// no per-bucket storage. A ring node carries no time and no sequence
// number: its bucket gives its cycle and its place in the list its order.
// Popped nodes go on a LIFO free list threaded through the same next
// field, and the slab grows by append only when that list is empty, so a
// run allocates about log2(peak pending) times and the steady state none.
// Overflow events are stored by value in the heap with their (when, seq).
// An occupancy bitmap over the buckets makes "find the next non-empty
// bucket" a handful of word scans instead of a per-cycle walk.
package sim

import "math/bits"

// Cycle is a point in simulated time, measured in processor clock cycles.
type Cycle uint64

// Handler is the typed fast-path callback: it receives the arg and scalar
// value it was scheduled with. Scheduling a package-level Handler with a
// pointer-shaped arg (pointer, func value, ...) is allocation-free, unlike
// a capturing closure, which the caller must allocate per event.
type Handler func(arg any, v uint64)

const (
	ringBits  = 12
	ringSize  = 1 << ringBits // one-cycle buckets in the near-future window
	ringMask  = ringSize - 1
	ringWords = ringSize / 64 // occupancy bitmap words
)

// node is one ring entry in the slab. The closure API (Schedule et al.) is
// expressed on top of the typed form: the func() rides in arg and a shared
// adapter invokes it, so both APIs share one representation. next links
// the node into its bucket's list or the free list (index+1, 0 = end).
type node struct {
	h      Handler
	arg    any
	v      uint64
	next   int32
	daemon bool
}

// event is one overflow-heap entry: a node with the time and sequence
// number the heap orders by.
type event struct {
	when Cycle
	seq  uint64
	node
}

func eventLess(a, b *event) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	return a.seq < b.seq
}

// runClosure adapts the closure API onto the typed representation.
func runClosure(arg any, _ uint64) { arg.(func())() }

// Engine is a discrete-event simulator. The zero value is not usable; create
// one with NewEngine.
type Engine struct {
	now  Cycle
	seq  uint64
	size int // pending events across ring and overflow

	// Near-future calendar ring. Invariants: ringBase <= now whenever
	// control is outside pop; every ring event has when in
	// [ringBase, ringBase+ringSize); bucket s is either active
	// (first[s] != 0, last[s] names its tail node, occupancy bit set) or
	// empty (first[s] == last[s] == 0, bit clear).
	ringBase  Cycle
	ringCount int
	first     [ringSize]int32
	last      [ringSize]int32
	occ       [ringWords]uint64

	// nodes is the slab every ring event lives in; free heads the list of
	// popped nodes (index+1, 0 = empty).
	nodes []node
	free  int32

	// Far-future overflow min-heap on (when, seq). Invariant: no overflow
	// event has when < ringBase+ringSize (eligible events migrate the
	// moment the window advances, keeping bucket order = seq order).
	overflow []event

	// demand counts queued non-daemon events; Run returns when it reaches
	// zero even if daemon events (refresh ticks, monitors) remain.
	demand int

	// OnDispatch, when non-nil, observes every dispatched event just before
	// its handler runs: the advanced clock and the remaining queue depth.
	// It is a plain func field (not an interface) so the disabled path is a
	// single nil check per event, and it must only observe — an OnDispatch
	// that schedules events or mutates engine state breaks the determinism
	// contract (telemetry's no-perturbation rule).
	OnDispatch func(now Cycle, pending int)
}

// NewEngine returns an engine with an empty event queue at cycle 0.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current simulated cycle.
func (e *Engine) Now() Cycle { return e.now }

// Schedule runs fn after delay cycles. A delay of 0 runs fn later in the
// current cycle, after all previously scheduled events for this cycle.
func (e *Engine) Schedule(delay Cycle, fn func()) {
	e.demand++
	e.push(e.now+delay, runClosure, fn, 0, false)
}

// ScheduleFn is the allocation-free fast path of Schedule: h(arg, v) runs
// after delay cycles. Use a package-level Handler and a pointer-shaped arg
// to avoid the per-event closure allocation of Schedule.
func (e *Engine) ScheduleFn(delay Cycle, h Handler, arg any, v uint64) {
	e.demand++
	e.push(e.now+delay, h, arg, v, false)
}

// ScheduleDaemon schedules a background event: daemon events fire like
// normal ones but do not keep Run alive — the run ends when only daemons
// remain (periodic refresh, monitors, heartbeats).
func (e *Engine) ScheduleDaemon(delay Cycle, fn func()) {
	e.push(e.now+delay, runClosure, fn, 0, true)
}

// At runs fn at the given absolute cycle, which must not be in the past.
func (e *Engine) At(when Cycle, fn func()) {
	if when < e.now {
		panic("sim: scheduling event in the past")
	}
	e.demand++
	e.push(when, runClosure, fn, 0, false)
}

// AtFn is the allocation-free fast path of At.
func (e *Engine) AtFn(when Cycle, h Handler, arg any, v uint64) {
	if when < e.now {
		panic("sim: scheduling event in the past")
	}
	e.demand++
	e.push(when, h, arg, v, false)
}

// NextEventTime returns the cycle of the earliest pending event, or
// ok=false on an empty queue. The parallel engine uses it to size epochs:
// the global minimum across partitions anchors the lookahead window.
func (e *Engine) NextEventTime() (Cycle, bool) {
	if e.size == 0 {
		return 0, false
	}
	if e.ringCount == 0 {
		// Ring idle: the heap minimum is the global minimum.
		return e.overflow[0].when, true
	}
	// Ring events all precede the overflow horizon (ringBase+ringSize),
	// so the earliest ring event is the global minimum.
	return e.nextEventCycle(), true
}

// Run executes events until no demand event is left queued. It returns the
// cycle of the last executed event.
func (e *Engine) Run() Cycle {
	for e.size > 0 && e.demand > 0 {
		n, _ := e.pop(0, false)
		if !n.daemon {
			e.demand--
		}
		if e.OnDispatch != nil {
			e.OnDispatch(e.now, e.size)
		}
		n.h(n.arg, n.v)
	}
	return e.now
}

// RunUntil executes events with time <= limit. Events beyond the limit stay
// queued. It returns the current cycle (== limit unless the queue drained
// first).
func (e *Engine) RunUntil(limit Cycle) Cycle {
	for e.size > 0 {
		n, ok := e.pop(limit, true)
		if !ok {
			e.now = limit
			return e.now
		}
		if !n.daemon {
			e.demand--
		}
		if e.OnDispatch != nil {
			e.OnDispatch(e.now, e.size)
		}
		n.h(n.arg, n.v)
	}
	if e.now < limit {
		e.now = limit
	}
	return e.now
}

// push enqueues an event. Callers guarantee when >= e.now, which (with the
// ringBase <= now invariant) means the event is never earlier than the
// window start.
func (e *Engine) push(when Cycle, h Handler, arg any, v uint64, daemon bool) {
	if e.size == 0 && e.now > e.ringBase {
		// Empty queue: re-anchor the window at the present so the new
		// event (and its successors) land in the ring, not the heap.
		e.ringBase = e.now
	}
	e.size++
	n := node{h: h, arg: arg, v: v, daemon: daemon}
	if when < e.ringBase+ringSize {
		e.ringPut(when, n)
		return
	}
	// Only the heap needs sequence numbers: ring order is list order.
	e.seq++
	e.heapPush(event{when: when, seq: e.seq, node: n})
}

// ringPut stores n in a slab node and appends it to the tail of cycle
// when's bucket.
func (e *Engine) ringPut(when Cycle, n node) {
	i := e.free
	if i != 0 {
		e.free = e.nodes[i-1].next
		e.nodes[i-1] = n
	} else {
		e.nodes = append(e.nodes, n)
		i = int32(len(e.nodes))
	}
	s := int(when) & ringMask
	if t := e.last[s]; t != 0 {
		e.nodes[t-1].next = i
	} else {
		// Bucket empty: start it and mark it occupied.
		e.first[s] = i
		e.occ[s>>6] |= 1 << uint(s&63)
	}
	e.last[s] = i
	e.ringCount++
}

// pop removes the earliest pending event in (when, seq) order, advances the
// clock to its cycle and returns it. When bounded, events with when > limit
// stay queued and ok=false is returned (with the window advanced to limit
// so later pushes keep the ring invariants).
func (e *Engine) pop(limit Cycle, bounded bool) (n node, ok bool) {
	if e.size == 0 {
		return node{}, false
	}
	if e.ringCount == 0 {
		// Ring idle: jump the window straight to the earliest far-future
		// event instead of scanning empty buckets.
		if bounded && e.overflow[0].when > limit {
			e.advanceBase(limit)
			return node{}, false
		}
		e.ringBase = e.overflow[0].when
		e.migrate()
	}
	c := e.nextEventCycle()
	if bounded && c > limit {
		e.advanceBase(limit)
		return node{}, false
	}
	e.advanceBase(c)
	s := int(c) & ringMask
	i := e.first[s]
	p := &e.nodes[i-1]
	n = *p
	if e.first[s] = n.next; n.next == 0 {
		e.last[s] = 0
		e.occ[s>>6] &^= 1 << uint(s&63)
	}
	*p = node{next: e.free} // release arg/handler references
	e.free = i
	e.ringCount--
	e.size--
	e.now = c
	return n, true
}

// advanceBase moves the window start forward to c and migrates any overflow
// events that the wider window now covers. Migration must happen on every
// advance — before the next push — so that a directly scheduled event can
// never land in a bucket ahead of an earlier-sequence overflow event for
// the same cycle.
func (e *Engine) advanceBase(c Cycle) {
	if c > e.ringBase {
		e.ringBase = c
		e.migrate()
	}
}

// migrate drains overflow events that fit the current window into the ring.
// Heap order is (when, seq), so same-cycle events arrive in sequence order.
func (e *Engine) migrate() {
	horizon := e.ringBase + ringSize
	for len(e.overflow) > 0 && e.overflow[0].when < horizon {
		ev := e.heapPop()
		e.ringPut(ev.when, ev.node)
	}
}

// nextEventCycle returns the cycle of the earliest ring event (callers
// ensure ringCount > 0). It scans the occupancy bitmap from the window
// start, wrapping once; bucket distance from ringBase is bucket-index
// distance modulo ringSize because the window is exactly ringSize wide.
func (e *Engine) nextEventCycle() Cycle {
	start := int(e.ringBase) & ringMask
	w := start >> 6
	if b := e.occ[w] >> uint(start&63); b != 0 {
		return e.ringBase + Cycle(bits.TrailingZeros64(b))
	}
	for i := 1; i <= ringWords; i++ {
		wi := (w + i) & (ringWords - 1)
		if b := e.occ[wi]; b != 0 {
			s := wi<<6 + bits.TrailingZeros64(b)
			return e.ringBase + Cycle((s-start)&ringMask)
		}
	}
	panic("sim: ring occupancy accounting corrupted")
}

// heapPush inserts the event into the overflow min-heap.
func (e *Engine) heapPush(ev event) {
	h := append(e.overflow, ev)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !eventLess(&h[i], &h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	e.overflow = h
}

// heapPop removes and returns the overflow minimum.
func (e *Engine) heapPop() event {
	h := e.overflow
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = event{} // release references
	h = h[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && eventLess(&h[r], &h[l]) {
			m = r
		}
		if !eventLess(&h[m], &h[i]) {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	e.overflow = h
	return top
}
