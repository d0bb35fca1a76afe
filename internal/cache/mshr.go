package cache

import "dve/internal/topology"

// MSHR tracks in-flight transactions per line. Requests for a line with an
// outstanding transaction are coalesced and serialized, which is the
// invariant the paper's recovery path relies on ("any concurrent request ...
// is serialized and coalesced at the directory in the MSHR", Section V-C3).
type MSHR struct {
	// waiters holds each busy line's deferred requests in FIFO order.
	waiters LineTable[topology.Line, []func()]
}

// NewMSHR creates an empty MSHR table.
func NewMSHR() *MSHR {
	return &MSHR{waiters: NewLineTable[topology.Line, []func()](0)}
}

// Busy reports whether a transaction is outstanding for the line.
func (m *MSHR) Busy(l topology.Line) bool {
	return m.waiters.Get(l) != nil
}

// Allocate reserves the line. It panics if the line is already busy:
// callers must check Busy first.
func (m *MSHR) Allocate(l topology.Line) {
	if _, added := m.waiters.Put(l); !added {
		panic("mshr: double allocate")
	}
}

// Defer queues fn to run when the line's current transaction completes.
func (m *MSHR) Defer(l topology.Line, fn func()) {
	w := m.waiters.Get(l)
	if w == nil {
		panic("mshr: defer without allocation")
	}
	*w = append(*w, fn)
}

// Release completes the line's transaction and returns the deferred waiters
// in FIFO order. The caller is responsible for running them; the MSHR keeps
// no reference to the returned slice, so waiters that re-allocate the line
// start a fresh list.
func (m *MSHR) Release(l topology.Line) []func() {
	waiters, ok := m.waiters.Delete(l)
	if !ok {
		panic("mshr: release without allocation")
	}
	return waiters
}
