package serve

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"dve/internal/obslog"
	"dve/internal/results"
)

// The lease queue is the fabric's unit of fault tolerance. A cell is never
// handed to a worker — it is *leased*: the dequeue carries a deadline, the
// worker must renew before it passes, and an expired lease silently returns
// the cell to the queue with its attempt counter bumped. Worker death (or a
// network partition that looks just like it) therefore costs one lease TTL
// of latency, never a lost cell. A cell whose attempts exceed the poison
// cap is quarantined as failed instead of being re-enqueued forever — a
// deterministic simulator bug must not wedge the whole fabric.
//
// Two owner classes exist:
//
//   - local leases (the in-process pool) carry no deadline: an in-process
//     worker can only die with the whole server, so expiry would add a
//     re-run hazard (a slow simulation is not a dead worker) without adding
//     any recovery. This keeps a lone solo dveserve byte-for-byte faithful
//     to the pre-fabric worker pool.
//   - remote leases expire. The coordinator's ticker calls tick() to scan
//     deadlines; every public operation also scans lazily so tests can
//     drive the state machine with a fake clock and no goroutines.
//
// Time is a time.Duration read from an injected monotonic clock (the
// server's stats.Stopwatch in production), never the wall clock directly:
// internal/serve is a simulation-adjacent package and dvelint's determinism
// analyzer bans time.Now outside internal/stats.

// queuedCell is one cell waiting for a lease, with its retry history.
type queuedCell struct {
	job        job
	attempts   int    // leases granted so far
	lastErr    string // most recent failure/expiry reason, for poison reports
	enqueuedAt time.Duration
}

// lease is one granted cell. id is unique for the server's lifetime so a
// stale renew/complete from a worker whose lease already expired can never
// touch the cell's next incarnation.
type lease struct {
	id       uint64
	job      job
	attempts int
	owner    string
	// local leases never expire; remote ones carry a deadline on the
	// queue's monotonic clock.
	local    bool
	deadline time.Duration
}

// leaseQueue is the coordinator's cell queue. All methods are safe for
// concurrent use. cond is broadcast on every state change so blocked local
// workers and Drain observe progress. Every transition is an event on the
// server's stream; the stream's ledger does the counting.
type leaseQueue struct {
	mu   sync.Mutex
	cond *sync.Cond

	ttl         time.Duration
	maxAttempts int
	st          *stream

	pending []queuedCell // FIFO
	leases  map[uint64]*lease
	nextID  uint64
	closed  bool

	// poisoned reports a cell that exhausted its attempt budget; the server
	// marks the job failed. Called without mu held.
	poisoned func(j job, attempts int, lastErr string)

	evBuf []obslog.Event // guarded by mu; drained before every unlock
}

func newLeaseQueue(ttl time.Duration, maxAttempts int, st *stream) *leaseQueue {
	q := &leaseQueue{
		ttl:         ttl,
		maxAttempts: maxAttempts,
		st:          st,
		leases:      make(map[uint64]*lease),
	}
	q.cond = sync.NewCond(&q.mu)
	return q
}

func (q *leaseQueue) now() time.Duration { return q.st.now() }

// broadcast wakes every waiter (blocked local workers, Drain). Safe to call
// without mu; used by the server when worker liveness changes so a local
// pool gated on degraded mode re-evaluates.
func (q *leaseQueue) broadcast() {
	q.mu.Lock()
	q.cond.Broadcast()
	q.mu.Unlock()
}

// noteLocked stamps one transition and buffers it for flushAndUnlock. mu
// must be held.
func (q *leaseQueue) noteLocked(name string, ev obslog.Event) {
	q.st.stamp(name, &ev)
	q.evBuf = append(q.evBuf, ev)
}

// leaseEvent is the record for a transition of lease l.
func leaseEvent(l *lease) obslog.Event {
	ev := cellEvent(l.job)
	ev.Lease, ev.Worker, ev.Attempt = l.id, l.owner, l.attempts
	return ev
}

// flushAndUnlock applies the buffered events to the stream in exactly the
// order the queue recorded them, then releases mu; mu must be held on
// entry. The stream mutex is lock-chained — acquired while mu is still
// held, released only after delivery — so two flushers can never
// interleave their batches: a grant flushed by one goroutine cannot
// overtake the expiry another goroutine collected first, which the
// lifecycle trace's span nesting depends on.
func (q *leaseQueue) flushAndUnlock() {
	evs := q.evBuf
	q.evBuf = nil
	if len(evs) == 0 {
		q.mu.Unlock()
		return
	}
	q.st.mu.Lock()
	q.mu.Unlock()
	for i := range evs {
		q.st.apply(&evs[i])
	}
	q.st.mu.Unlock()
}

// enqueue appends a fresh cell. Returns false when the queue is closed
// (draining) or already holds depth pending cells.
func (q *leaseQueue) enqueue(j job, depth int) bool {
	q.mu.Lock()
	if q.closed || len(q.pending) >= depth {
		q.mu.Unlock()
		return false
	}
	q.pending = append(q.pending, queuedCell{job: j, attempts: 0, enqueuedAt: q.now()})
	q.noteLocked(evEnqueued, cellEvent(j))
	q.cond.Broadcast()
	q.flushAndUnlock()
	return true
}

// grantLocked pops the oldest pending cell into a new lease. mu must be
// held, and the caller has checked pending is non-empty.
func (q *leaseQueue) grantLocked(owner string, local bool) *lease {
	c := q.pending[0]
	q.pending = q.pending[1:]
	q.nextID++
	l := &lease{
		id:       q.nextID,
		job:      c.job,
		attempts: c.attempts + 1,
		owner:    owner,
		local:    local,
	}
	if !local {
		l.deadline = q.now() + q.ttl
	}
	q.leases[l.id] = l
	waited := q.now() - c.enqueuedAt
	if waited < 0 {
		waited = 0
	}
	ev := leaseEvent(l)
	ev.N = uint64(waited.Milliseconds())
	q.noteLocked(evGranted, ev)
	q.cond.Broadcast()
	return l
}

// tryLease grants the oldest pending cell to owner, or reports none
// available. local leases never expire. Expired remote leases are reaped
// first, so a cell abandoned by a dead worker is immediately re-grantable.
func (q *leaseQueue) tryLease(owner string, local bool) (*lease, bool) {
	q.mu.Lock()
	poisons := q.reapLocked()
	var l *lease
	if len(q.pending) > 0 {
		l = q.grantLocked(owner, local)
	}
	q.flushAndUnlock()
	q.emitPoisons(poisons)
	return l, l != nil
}

// renew extends a remote lease's deadline on worker's heartbeat. False
// means the lease is gone — expired, completed, or never granted — and the
// caller must abandon the cell (its next incarnation belongs to someone
// else).
func (q *leaseQueue) renew(id uint64, worker string) bool {
	q.mu.Lock()
	poisons := q.reapLocked()
	l, ok := q.leases[id]
	if ok {
		if !l.local {
			l.deadline = q.now() + q.ttl
		}
		q.noteLocked(evRenewed, leaseEvent(l))
	} else {
		q.noteLocked(evRenewGone, obslog.Event{Lease: id, Worker: worker})
	}
	q.flushAndUnlock()
	q.emitPoisons(poisons)
	return ok
}

// leaseKey returns the key of the cell live lease id holds.
func (q *leaseQueue) leaseKey(id uint64) (results.Key, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	l, ok := q.leases[id]
	if !ok {
		return "", false
	}
	return l.job.key, true
}

// retire records cell j's outcome: done when errMsg is empty, failed with
// errMsg otherwise. When lease id is still live it is retired; otherwise
// the result is late (its lease expired while a slow-but-alive worker
// finished) and whatever incarnation of j is in flight — a pending copy or
// another lease — is cancelled, since simulations are deterministic and a
// re-run would only waste a worker. owner attributes a late outcome.
// Reports whether lease id was live.
func (q *leaseQueue) retire(id uint64, j job, owner, errMsg string) bool {
	q.mu.Lock()
	l, live := q.leases[id]
	var ev obslog.Event
	if live {
		delete(q.leases, id)
		ev = leaseEvent(l)
	} else {
		q.cancelLocked(j.key)
		ev = cellEvent(j)
		ev.Lease, ev.Worker = id, owner
	}
	ev.Detail = errMsg
	name := evCompleted
	if errMsg != "" {
		name = evFailed
	}
	q.noteLocked(name, ev)
	q.cond.Broadcast()
	q.flushAndUnlock()
	return live
}

// cancelLocked drops the pending copy and any outstanding lease of the cell
// with this key. mu must be held.
func (q *leaseQueue) cancelLocked(key results.Key) {
	const reason = "late result landed"
	for i := range q.pending {
		if q.pending[i].job.key == key {
			ev := cellEvent(q.pending[i].job)
			ev.Detail = reason
			q.pending = append(q.pending[:i], q.pending[i+1:]...)
			q.noteLocked(evCancelled, ev)
			break
		}
	}
	for id, l := range q.leases {
		if l.job.key == key {
			delete(q.leases, id)
			ev := leaseEvent(l)
			ev.Detail = reason
			q.noteLocked(evCancelled, ev)
			break
		}
	}
}

// fail returns a leased cell to the queue (or poisons it past the attempt
// cap). reason feeds the eventual poison report.
func (q *leaseQueue) fail(id uint64, reason string) bool {
	q.mu.Lock()
	l, ok := q.leases[id]
	if !ok {
		q.mu.Unlock()
		return false
	}
	delete(q.leases, id)
	ev := leaseEvent(l)
	ev.Detail = reason
	q.noteLocked(evAttemptFailed, ev)
	poison := q.requeueLocked(l, reason)
	q.cond.Broadcast()
	q.flushAndUnlock()
	if poison != nil {
		q.emitPoisons([]poisonReport{*poison})
	}
	return true
}

// poisonReport carries one quarantined cell out of the locked region.
type poisonReport struct {
	j        job
	attempts int
	lastErr  string
}

func (q *leaseQueue) emitPoisons(ps []poisonReport) {
	for _, p := range ps {
		if q.poisoned != nil {
			q.poisoned(p.j, p.attempts, p.lastErr)
		}
	}
}

// poisonDetail is a quarantined cell's error text.
func poisonDetail(attempts int, lastErr string) string {
	return fmt.Sprintf("poisoned after %d attempts: %s", attempts, lastErr)
}

// requeueLocked re-enqueues a dead lease's cell, or returns a poison report
// when its attempt budget is spent. mu must be held. Re-enqueued cells go
// to the front: they are the oldest work in the system and a re-run is
// latency someone is already waiting on.
func (q *leaseQueue) requeueLocked(l *lease, reason string) *poisonReport {
	ev := leaseEvent(l)
	if l.attempts >= q.maxAttempts {
		ev.Detail = poisonDetail(l.attempts, reason)
		q.noteLocked(evPoisoned, ev)
		return &poisonReport{j: l.job, attempts: l.attempts, lastErr: reason}
	}
	q.pending = append([]queuedCell{{job: l.job, attempts: l.attempts, lastErr: reason, enqueuedAt: q.now()}}, q.pending...)
	ev.Detail = reason
	q.noteLocked(evRequeued, ev)
	return nil
}

// tick reaps expired leases. The coordinator's background ticker calls it;
// every queue operation also reaps lazily.
func (q *leaseQueue) tick() {
	q.mu.Lock()
	poisons := q.reapLocked()
	if len(poisons) > 0 || q.closed {
		q.cond.Broadcast()
	}
	q.flushAndUnlock()
	q.emitPoisons(poisons)
}

// reapLocked expires overdue remote leases, re-enqueueing or poisoning
// their cells. mu must be held. Expired leases are processed in lease-id
// order so re-enqueue and poison-report order never depends on map
// iteration.
func (q *leaseQueue) reapLocked() []poisonReport {
	var dead []*lease
	now := q.now()
	for _, l := range q.leases {
		if !l.local && now >= l.deadline {
			dead = append(dead, l)
		}
	}
	if len(dead) == 0 {
		return nil
	}
	sort.Slice(dead, func(i, j int) bool { return dead[i].id < dead[j].id })
	var poisons []poisonReport
	for _, l := range dead {
		delete(q.leases, l.id)
		reason := fmt.Sprintf("lease %d (owner %s) expired after attempt %d", l.id, l.owner, l.attempts)
		ev := leaseEvent(l)
		ev.Detail = reason
		q.noteLocked(evExpired, ev)
		if p := q.requeueLocked(l, reason); p != nil {
			poisons = append(poisons, *p)
		}
	}
	q.cond.Broadcast()
	return poisons
}

// close stops enqueue; pending cells and outstanding leases still drain.
func (q *leaseQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
}

// waitEmpty blocks until the queue is closed with no pending cells and no
// outstanding leases: the drain barrier.
func (q *leaseQueue) waitEmpty() {
	q.mu.Lock()
	for !(q.closed && len(q.pending) == 0 && len(q.leases) == 0) {
		q.cond.Wait()
	}
	q.mu.Unlock()
}

// acquire blocks until a cell is available and allowed() permits this owner
// to take it, granting a lease; it returns false when the queue has fully
// drained (closed, empty, nothing leased) and the worker should exit.
// allowed is evaluated under the queue lock and must not block. Expiry
// reaping is the ticker's job, not acquire's: a blocked acquire could not
// emit poison reports, so it relies on tick()'s broadcast to wake it when
// expired cells return to pending.
func (q *leaseQueue) acquire(owner string, local bool, allowed func() bool) (*lease, bool) {
	q.mu.Lock()
	for {
		if len(q.pending) > 0 && allowed() {
			l := q.grantLocked(owner, local)
			q.flushAndUnlock()
			return l, true
		}
		if q.closed && len(q.pending) == 0 && len(q.leases) == 0 {
			q.mu.Unlock()
			return nil, false
		}
		q.cond.Wait()
	}
}
