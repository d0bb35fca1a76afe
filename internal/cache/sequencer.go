package cache

import (
	"dve/internal/sim"
	"dve/internal/telemetry"
	"dve/internal/topology"
)

// Sequencer serializes per-line transactions behind an MSHR: each Do pays a
// fixed access latency, waits for any in-flight transaction on the line,
// and then runs the transaction body with a release function that must be
// called exactly once at completion. Both directory flavours (the home
// directory and the Dvé replica directory) sequence their transactions
// through one of these.
//
// The dispatch goes through a pooled call record and the engine's typed
// fast path, and the release function is built once per record, so an
// uncontended transaction performs no heap allocation here at all. The pool
// is a LIFO free list — reuse order is a pure function of the transaction
// order, never of map iteration, keeping runs deterministic.
type Sequencer struct {
	eng  *sim.Engine
	lat  sim.Cycle
	mshr *MSHR
	free []*seqCall

	// Trace, when non-nil, spans every transaction on the owner's (comp,
	// socket) track — Begin once the line is held, End at release, before
	// the deferred waiters run — and records contended dispatches (a
	// transaction deferred behind an in-flight one on the same line) as
	// instant events. The disabled path is one nil check; the alloc test
	// pins it at 0 allocs/op.
	Trace  *telemetry.Tracer
	comp   telemetry.Component
	socket int
}

// seqCall carries one transaction from Do to its release: it rides the
// event queue, then stays checked out (holding the line) until the body
// calls release, which recycles it.
type seqCall struct {
	q       *Sequencer
	name    string
	l       topology.Line
	span    telemetry.SpanID
	fn      func(release func())
	release func()
}

// NewSequencer creates a sequencer with its own MSHR and the given
// per-access latency. comp and socket name the trace track its
// transactions are reported on.
func NewSequencer(eng *sim.Engine, lat sim.Cycle, comp telemetry.Component, socket int) *Sequencer {
	return &Sequencer{eng: eng, lat: lat, mshr: NewMSHR(), comp: comp, socket: socket}
}

// Do schedules fn to run on the line after the access latency, serialized
// against any in-flight transaction on the same line. name labels the
// transaction's trace span.
func (q *Sequencer) Do(name string, l topology.Line, fn func(release func())) {
	c := q.get()
	c.name, c.l, c.fn = name, l, fn
	q.eng.ScheduleFn(q.lat, runSeqCall, c, 0)
}

func (q *Sequencer) get() *seqCall {
	if n := len(q.free); n > 0 {
		c := q.free[n-1]
		q.free = q.free[:n-1]
		return c
	}
	c := &seqCall{q: q}
	c.release = func() {
		if q.Trace != nil {
			q.Trace.End(c.span)
		}
		// Recycle before waking waiters: a waiter may re-enter Do (which
		// may pop this very record and overwrite c.l), so copy the line
		// out first. LIFO reuse keeps the allocation pattern deterministic.
		l := c.l
		q.free = append(q.free, c)
		for _, w := range q.mshr.Release(l) {
			w()
		}
	}
	return c
}

// runSeqCall dispatches a queued transaction. On the contended path the
// record is recycled immediately and the retry is deferred into the MSHR;
// on the uncontended path the record stays checked out until release.
func runSeqCall(arg any, _ uint64) {
	c := arg.(*seqCall)
	q := c.q
	if q.mshr.Busy(c.l) {
		name, l, fn := c.name, c.l, c.fn
		c.fn = nil
		q.free = append(q.free, c)
		if q.Trace != nil {
			q.Trace.Point(q.comp, q.socket, "defer", uint64(l))
		}
		q.mshr.Defer(l, func() { q.Do(name, l, fn) })
		return
	}
	q.mshr.Allocate(c.l)
	if q.Trace != nil {
		c.span = q.Trace.Begin(q.comp, q.socket, c.name, uint64(c.l))
	}
	fn := c.fn
	c.fn = nil
	fn(c.release)
}
