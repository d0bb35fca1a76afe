package serve

// The fabric's one event stream. Every coordinator-side transition — the
// lease queue's ordered batches, sweep intake, cache hits, 429 rejections,
// renewals, worker registration, degraded flips and drain — is an
// obslog.Event handed to stream.emit. emit applies it, in order and under a
// leaf mutex, to four folds: the metrics ledger (below), the Chrome trace
// (trace.go), the /watch hub (watch.go) and the structured log. No view
// keeps a private copy of a transition, so they cannot disagree, and a
// debug-level log fed back through the same folds rebuilds the other three.

import (
	"slices"
	"sort"
	"sync"
	"time"

	"dve/internal/obslog"
)

// Event names. The queue's lifecycle events come first, in the order a
// healthy cell sees them.
const (
	evEnqueued      = "cell_enqueued"
	evGranted       = "cell_granted"
	evCompleted     = "cell_completed"      // retired: result landed
	evFailed        = "cell_failed"         // retired: terminal failure
	evAttemptFailed = "cell_attempt_failed" // worker-reported; requeue or poison follows
	evExpired       = "cell_expired"        // lease passed its deadline; requeue or poison follows
	evRequeued      = "cell_requeued"       // cell returned to the front of the queue
	evPoisoned      = "cell_poisoned"       // attempt budget spent; cell quarantined
	evCancelled     = "cell_cancelled"      // in-flight incarnation cancelled by a late result
	evRenewed       = "lease_renewed"
	evRenewGone     = "renew_gone"

	evSweepAccepted    = "sweep_accepted"
	evCacheHit         = "cell_cache_hit"
	evAttached         = "cell_attached" // resubmitted while queued or running; Detail is the status
	evRejected         = "cell_rejected"
	evFailReported     = "fail_reported"
	evCompleteCorrupt  = "complete_corrupt"
	evWorkerRegistered = "worker_registered"
	evDegradedEnter    = "degraded_enter"
	evDegradedExit     = "degraded_exit"
	evDrainBegin       = "drain_begin"
	evDrainDone        = "drain_done"
)

const (
	compQueue = "queue"
	compCoord = "coordinator"
)

// eventKinds fixes each event's component and log level. A record in a log
// file is a fabric transition exactly when its (event, comp) pair is here;
// the runner and worker processes log other components.
var eventKinds = map[string]struct {
	comp string
	lv   obslog.Level
}{
	evEnqueued:      {compQueue, obslog.Info},
	evGranted:       {compQueue, obslog.Info},
	evCompleted:     {compQueue, obslog.Info},
	evFailed:        {compQueue, obslog.Error},
	evAttemptFailed: {compQueue, obslog.Warn},
	evExpired:       {compQueue, obslog.Warn},
	evRequeued:      {compQueue, obslog.Info},
	evPoisoned:      {compQueue, obslog.Error},
	evCancelled:     {compQueue, obslog.Info},
	evRenewed:       {compQueue, obslog.Debug},
	evRenewGone:     {compQueue, obslog.Warn},

	evSweepAccepted:    {compCoord, obslog.Info},
	evCacheHit:         {compCoord, obslog.Info},
	evAttached:         {compCoord, obslog.Debug},
	evRejected:         {compCoord, obslog.Warn},
	evFailReported:     {compCoord, obslog.Warn},
	evCompleteCorrupt:  {compCoord, obslog.Warn},
	evWorkerRegistered: {compCoord, obslog.Info},
	evDegradedEnter:    {compCoord, obslog.Warn},
	evDegradedExit:     {compCoord, obslog.Warn},
	evDrainBegin:       {compCoord, obslog.Info},
	evDrainDone:        {compCoord, obslog.Info},
}

// cellEvent fills the correlation fields every cell event carries.
func cellEvent(j job) obslog.Event {
	ev := obslog.Event{
		Key:      string(j.key),
		Workload: j.spec.Name,
		Protocol: j.cfg.Protocol.String(),
	}
	if j.sweep != 0 {
		ev.Sweep = sweepStr(j.sweep)
		ev.Cell = cellStr(j.sweep, j.cell)
	}
	return ev
}

// stream is the event stream and its four folds. mu is a leaf lock: folds
// never take the server's job lock, the worker registry lock or the queue
// lock. The queue takes mu while still holding its own lock (lock
// chaining, see leaseQueue.flushAndUnlock), so batches collected in queue
// order are applied in queue order.
type stream struct {
	now func() time.Duration
	log *obslog.Logger

	mu    sync.Mutex
	led   ledger
	trace *fabricTrace
	hub   *watchHub
}

func newStream(now func() time.Duration, log *obslog.Logger, traceEvents int) *stream {
	return &stream{
		now:   now,
		log:   log,
		led:   newLedger(),
		trace: newFabricTrace(traceEvents),
		hub:   newWatchHub(),
	}
}

// stamp names an event and timestamps it on the stream's clock.
func (st *stream) stamp(name string, ev *obslog.Event) {
	ev.Event = name
	ev.Comp = eventKinds[name].comp
	ev.AtMicros = st.now().Microseconds()
}

// emit records one transition.
func (st *stream) emit(name string, ev obslog.Event) {
	st.stamp(name, &ev)
	st.mu.Lock()
	st.apply(&ev)
	st.mu.Unlock()
}

// apply runs one stamped event through every fold. mu must be held.
func (st *stream) apply(ev *obslog.Event) {
	st.led.apply(ev)
	st.trace.apply(ev, st.led.pending)
	st.hub.apply(ev)
	logFold(st.log, ev)
}

// logFold writes one event to the structured log. A nil or filtering
// logger makes it one branch with no allocation.
func logFold(l *obslog.Logger, ev *obslog.Event) {
	if lv := eventKinds[ev.Event].lv; l.On(lv) {
		l.Emit(lv, ev.Comp, ev.Event, *ev)
	}
}

// ledgerMetrics snapshots the ledger-backed Metrics fields.
func (st *stream) ledgerMetrics() Metrics {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.led.metrics()
}

// poisonLedgerCap bounds the quarantine list so a pathological sweep cannot
// grow it without bound.
const poisonLedgerCap = 32

// ledger is the metrics fold: every counter /metrics reports about cells,
// leases and workers, derived from the stream alone. Counters live in m;
// the rest is state the gauges are computed from.
type ledger struct {
	m       Metrics
	pending int                     // cells waiting for a lease
	leases  map[uint64]string       // live lease -> owner
	nodes   map[string]*NodeMetrics // registered fabric workers
}

func newLedger() ledger {
	return ledger{leases: make(map[uint64]string), nodes: make(map[string]*NodeMetrics)}
}

// retire ends a live lease, reporting whether it was live.
func (l *ledger) retire(id uint64) bool {
	_, ok := l.leases[id]
	delete(l.leases, id)
	return ok
}

func (l *ledger) apply(ev *obslog.Event) {
	m := &l.m
	node := l.nodes[ev.Worker] // nil unless a registered fabric worker
	switch ev.Event {
	case evSweepAccepted:
		m.Sweeps++
	case evEnqueued:
		m.Enqueued++
		l.pending++
	case evRejected:
		m.Rejected++
	case evGranted:
		l.pending--
		l.leases[ev.Lease] = ev.Worker
		m.LeaseWaitMs.Add(ev.N)
		if node != nil {
			node.Leased++
		}
	case evRenewed:
		m.Renewals++
		m.Heartbeats++
	case evRenewGone:
		m.Heartbeats++
	case evCompleted:
		l.retire(ev.Lease)
		m.Completed++
		if node != nil {
			node.Completed++
			m.RemoteCompleted++
		}
	case evFailed:
		l.retire(ev.Lease)
		m.Failed++
	case evAttemptFailed:
		l.retire(ev.Lease)
	case evExpired:
		l.retire(ev.Lease)
		m.LeaseExpired++
	case evRequeued:
		m.Requeued++
		l.pending++
	case evPoisoned:
		m.Poisoned++
		m.Failed++
		if len(m.PoisonedCells) < poisonLedgerCap {
			m.PoisonedCells = append(m.PoisonedCells, ev.Key)
		}
	case evCancelled:
		if !l.retire(ev.Lease) {
			l.pending-- // the pending copy, not a lease
		}
	case evFailReported:
		m.RemoteFailed++
		if node != nil {
			node.Failed++
		}
	case evWorkerRegistered:
		if node == nil {
			l.nodes[ev.Worker] = &NodeMetrics{ID: ev.Worker}
		}
	case evDegradedEnter, evDegradedExit:
		m.DegradedTransitions++
	}
}

// metrics renders the ledger-backed Metrics fields. Node rows are sorted by
// ID and carry no health: liveness is the worker registry's clock, not a
// transition.
func (l *ledger) metrics() Metrics {
	m := l.m
	m.QueueLen, m.Leased = l.pending, len(l.leases)
	m.PoisonedCells = slices.Clone(l.m.PoisonedCells)
	m.Nodes = make([]NodeMetrics, 0, len(l.nodes))
	for _, n := range l.nodes {
		row := *n
		for _, owner := range l.leases {
			if owner == row.ID {
				row.Inflight++
			}
		}
		m.Nodes = append(m.Nodes, row)
	}
	sort.Slice(m.Nodes, func(i, j int) bool { return m.Nodes[i].ID < m.Nodes[j].ID })
	return m
}
