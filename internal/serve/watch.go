package serve

// Live sweep progress. POST /run mints a sweep ID; GET /watch/<sweep>
// streams that matrix's per-cell state transitions as Server-Sent Events —
// a "snapshot" event first (every cell's current state plus the aggregate),
// then one "cell" event per transition, then "done" when the last cell goes
// terminal. ?poll=1&after=<seq> is the long-poll fallback for clients
// without SSE: it returns the transitions after <seq>, waiting briefly for
// news when there are none, or a full snapshot when the requested window
// has already left the bounded history ring.
//
// Slow consumers never block the fabric: each subscriber owns a bounded
// channel, an overflowing send drops the event and marks the subscriber,
// and the stream heals itself by emitting a fresh "resync" snapshot the
// next time that subscriber drains — drop-and-mark, not backpressure.
// Drain closes every stream with an "end" event.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dve/internal/obslog"
)

const (
	// watchHistory bounds each sweep's delta ring (long-poll catch-up
	// window); older deltas resync via snapshot.
	watchHistory = 256
	// watchSubBuffer is each subscriber's channel depth before
	// drop-and-mark kicks in.
	watchSubBuffer = 32
	// maxSweepsTracked bounds hub memory; the oldest sweep is forgotten
	// when a new one would exceed it.
	maxSweepsTracked = 256
)

// watchCell is one cell's state as a watcher sees it.
type watchCell struct {
	Workload string `json:"workload"`
	Protocol string `json:"protocol"`
	Key      string `json:"key"`
	// Status is "cached" (answered from disk at submit), "queued",
	// "running", "done", "failed" or "rejected".
	Status string `json:"status"`
	Err    string `json:"error,omitempty"`
}

// watchAgg is a sweep's aggregate progress. Done counts cells a worker
// executed; CacheHits counts cells answered from the result cache at
// submit, so Done+Failed+CacheHits+Rejected == Total means the sweep is
// over.
type watchAgg struct {
	Total     int `json:"total"`
	Queued    int `json:"queued"`
	Running   int `json:"running"`
	Done      int `json:"done"`
	Failed    int `json:"failed"`
	CacheHits int `json:"cache_hits"`
	Rejected  int `json:"rejected"`
}

func (a watchAgg) terminal() bool {
	return a.Total > 0 && a.Done+a.Failed+a.CacheHits+a.Rejected >= a.Total
}

// bump moves one cell between aggregate buckets (delta is +1 or -1).
func (a *watchAgg) bump(status string, delta int) {
	switch status {
	case "queued":
		a.Queued += delta
	case "running":
		a.Running += delta
	case "done":
		a.Done += delta
	case "failed":
		a.Failed += delta
	case "cached":
		a.CacheHits += delta
	case "rejected":
		a.Rejected += delta
	}
}

// watchEvent is one delta on a sweep's stream.
type watchEvent struct {
	Seq   uint64    `json:"seq"`
	Sweep uint64    `json:"sweep"`
	Cell  watchCell `json:"cell"`
	Agg   watchAgg  `json:"agg"`
}

// watchSnapshot is the full current state of one sweep.
type watchSnapshot struct {
	Sweep uint64      `json:"sweep"`
	Seq   uint64      `json:"seq"`
	Cells []watchCell `json:"cells"`
	Agg   watchAgg    `json:"agg"`
	Done  bool        `json:"done"`
}

// watchSub is one attached consumer.
type watchSub struct {
	ch      chan watchEvent
	dropped atomic.Bool
}

// sweepWatch tracks one sweep's cells, delta history and subscribers.
type sweepWatch struct {
	id uint64

	mu      sync.Mutex
	cells   []watchCell
	byKey   map[string]int
	agg     watchAgg
	seq     uint64
	hist    []watchEvent // ring of the last watchHistory deltas
	subs    map[*watchSub]struct{}
	waiters []chan struct{} // long-poll wakeups, closed on publish/close
	closed  bool
}

// addCell registers one cell (submission order); a key already in the
// sweep keeps its first registration.
func (sw *sweepWatch) addCell(c watchCell) {
	sw.mu.Lock()
	if _, dup := sw.byKey[c.Key]; !dup {
		sw.byKey[c.Key] = len(sw.cells)
		sw.cells = append(sw.cells, c)
		sw.agg.Total++
		sw.agg.bump(c.Status, +1)
	}
	sw.mu.Unlock()
}

// update applies one transition for key, publishing a delta when the state
// actually changed.
func (sw *sweepWatch) update(key, status, errMsg string) {
	sw.mu.Lock()
	idx, ok := sw.byKey[key]
	if !ok || sw.closed || (sw.cells[idx].Status == status && sw.cells[idx].Err == errMsg) {
		sw.mu.Unlock()
		return
	}
	sw.agg.bump(sw.cells[idx].Status, -1)
	sw.cells[idx].Status, sw.cells[idx].Err = status, errMsg
	sw.agg.bump(status, +1)
	sw.seq++
	ev := watchEvent{Seq: sw.seq, Sweep: sw.id, Cell: sw.cells[idx], Agg: sw.agg}
	sw.hist = append(sw.hist, ev)
	if len(sw.hist) > watchHistory {
		sw.hist = sw.hist[len(sw.hist)-watchHistory:]
	}
	for sub := range sw.subs {
		select {
		case sub.ch <- ev:
		default:
			// Slow consumer: drop the event and mark the subscriber so its
			// reader resyncs from a snapshot. Never block the fabric.
			sub.dropped.Store(true)
		}
	}
	for _, w := range sw.waiters {
		close(w)
	}
	sw.waiters = nil
	sw.mu.Unlock()
}

// snapshot copies the sweep's current state.
func (sw *sweepWatch) snapshot() watchSnapshot {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return sw.snapshotLocked()
}

func (sw *sweepWatch) snapshotLocked() watchSnapshot {
	return watchSnapshot{
		Sweep: sw.id, Seq: sw.seq, Cells: slices.Clone(sw.cells), Agg: sw.agg,
		Done: sw.agg.terminal(),
	}
}

// subscribe attaches a consumer and returns the snapshot it should start
// from (taken atomically with the attach, so no delta is lost in between).
func (sw *sweepWatch) subscribe() (*watchSub, watchSnapshot, bool) {
	sub := &watchSub{ch: make(chan watchEvent, watchSubBuffer)}
	sw.mu.Lock()
	if sw.closed {
		sw.mu.Unlock()
		return nil, watchSnapshot{}, false
	}
	sw.subs[sub] = struct{}{}
	snap := sw.snapshotLocked()
	sw.mu.Unlock()
	return sub, snap, true
}

func (sw *sweepWatch) unsubscribe(sub *watchSub) {
	sw.mu.Lock()
	delete(sw.subs, sub)
	sw.mu.Unlock()
}

// close ends every attached stream (drain): subscriber channels close,
// long-pollers wake.
func (sw *sweepWatch) close() {
	sw.mu.Lock()
	if !sw.closed {
		sw.closed = true
		for sub := range sw.subs {
			close(sub.ch)
		}
		sw.subs = make(map[*watchSub]struct{})
		for _, w := range sw.waiters {
			close(w)
		}
		sw.waiters = nil
	}
	sw.mu.Unlock()
}

// waiter registers a long-poll wakeup channel; it is closed on the next
// publish (or close).
func (sw *sweepWatch) waiter() chan struct{} {
	w := make(chan struct{})
	sw.mu.Lock()
	if sw.closed {
		sw.mu.Unlock()
		close(w)
		return w
	}
	sw.waiters = append(sw.waiters, w)
	sw.mu.Unlock()
	return w
}

// watchHub indexes sweeps and fans cell transitions out to every sweep
// containing the key (idempotent resubmission means one cell can belong to
// several matrices).
type watchHub struct {
	mu     sync.Mutex
	sweeps map[uint64]*sweepWatch
	order  []uint64
	byKey  map[string][]*sweepWatch
}

func newWatchHub() *watchHub {
	return &watchHub{
		sweeps: make(map[uint64]*sweepWatch),
		byKey:  make(map[string][]*sweepWatch),
	}
}

// sweep returns (creating if needed) the watch state for a sweep ID,
// evicting the oldest sweep past the tracking bound.
func (h *watchHub) sweep(id uint64) *sweepWatch {
	h.mu.Lock()
	defer h.mu.Unlock()
	if sw, ok := h.sweeps[id]; ok {
		return sw
	}
	for len(h.order) >= maxSweepsTracked {
		old := h.sweeps[h.order[0]]
		h.order = h.order[1:]
		delete(h.sweeps, old.id)
		for _, c := range old.cells {
			list := slices.DeleteFunc(h.byKey[c.Key], func(sw *sweepWatch) bool { return sw == old })
			if h.byKey[c.Key] = list; len(list) == 0 {
				delete(h.byKey, c.Key)
			}
		}
		old.close()
	}
	sw := &sweepWatch{
		id:    id,
		byKey: make(map[string]int),
		subs:  make(map[*watchSub]struct{}),
	}
	h.sweeps[id] = sw
	h.order = append(h.order, id)
	return sw
}

// apply folds one stream event into the sweeps it touches. Intake events
// (enqueued, cache hit, attached, rejected) register a cell under its own
// sweep only, so a resubmission cannot rewrite another matrix's history;
// execution events fan out to every sweep containing the key, since
// idempotent resubmission lets one cell belong to several matrices. Sweep
// "" means not minted by /run (tests driving the queue directly):
// untracked. Drain's last event ends every stream.
func (h *watchHub) apply(ev *obslog.Event) {
	switch ev.Event {
	case evEnqueued:
		h.addCell(ev, "queued")
	case evCacheHit:
		h.addCell(ev, "cached")
	case evAttached:
		h.addCell(ev, ev.Detail)
	case evRejected:
		h.addCell(ev, "rejected")
	case evGranted:
		h.update(ev.Key, "running", "")
	case evCompleted:
		h.update(ev.Key, "done", "")
	case evFailed, evPoisoned:
		h.update(ev.Key, "failed", ev.Detail)
	case evDrainDone:
		h.closeAll()
	}
}

// addCell registers the event's cell under its sweep with status.
func (h *watchHub) addCell(ev *obslog.Event, status string) {
	id, err := strconv.ParseUint(ev.Sweep, 10, 64)
	if err != nil || id == 0 {
		return
	}
	c := watchCell{Workload: ev.Workload, Protocol: ev.Protocol, Key: ev.Key, Status: status}
	if status == "rejected" {
		c.Err = ev.Detail
	}
	sw := h.sweep(id)
	sw.addCell(c)
	h.mu.Lock()
	if !slices.Contains(h.byKey[c.Key], sw) {
		h.byKey[c.Key] = append(h.byKey[c.Key], sw)
	}
	h.mu.Unlock()
}

// update fans one key's transition out to every sweep that contains it.
func (h *watchHub) update(key, status, errMsg string) {
	h.mu.Lock()
	list := slices.Clone(h.byKey[key])
	h.mu.Unlock()
	for _, sw := range list {
		sw.update(key, status, errMsg)
	}
}

// lookup returns the watch state for a sweep, if tracked.
func (h *watchHub) lookup(id uint64) (*sweepWatch, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	sw, ok := h.sweeps[id]
	return sw, ok
}

// allSweeps snapshots the tracked sweeps in registration order (the order
// slice, not the map, so callers see a deterministic sequence). mu must be
// held.
func (h *watchHub) allSweeps() []*sweepWatch {
	all := make([]*sweepWatch, 0, len(h.order))
	for _, id := range h.order {
		if sw, ok := h.sweeps[id]; ok {
			all = append(all, sw)
		}
	}
	return all
}

// closeAll ends every stream (drain).
func (h *watchHub) closeAll() {
	h.mu.Lock()
	all := h.allSweeps()
	h.mu.Unlock()
	for _, sw := range all {
		sw.close()
	}
}

// watchers counts attached SSE subscribers across all sweeps.
func (h *watchHub) watchers() int {
	h.mu.Lock()
	all := h.allSweeps()
	h.mu.Unlock()
	n := 0
	for _, sw := range all {
		sw.mu.Lock()
		n += len(sw.subs)
		sw.mu.Unlock()
	}
	return n
}

// ---- HTTP ----

// writeSSE emits one Server-Sent Event with a JSON payload.
func writeSSE(w http.ResponseWriter, event string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, b)
	return err
}

// pollResponse answers a long-poll request: Events when history covered
// the window, a full Snapshot when it did not (or on first contact), and
// Closed once the server is draining.
type pollResponse struct {
	Snapshot *watchSnapshot `json:"snapshot,omitempty"`
	Events   []watchEvent   `json:"events,omitempty"`
	Closed   bool           `json:"closed,omitempty"`
}

// handleWatch serves GET /watch/<sweep>: SSE by default, long-poll with
// ?poll=1&after=<seq>.
func (s *Server) handleWatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	idStr := strings.TrimPrefix(r.URL.Path, "/watch/")
	id, err := strconv.ParseUint(idStr, 10, 64)
	if err != nil || id == 0 {
		http.Error(w, "bad sweep id", http.StatusBadRequest)
		return
	}
	sw, ok := s.st.hub.lookup(id)
	if !ok {
		http.Error(w, "unknown sweep", http.StatusNotFound)
		return
	}
	if r.URL.Query().Get("poll") != "" {
		s.servePoll(w, r, sw)
		return
	}
	flusher, canFlush := w.(http.Flusher)
	if !canFlush {
		// No streaming support on this connection: degrade to one long-poll
		// round from the beginning of history.
		s.servePoll(w, r, sw)
		return
	}

	sub, snap, ok := sw.subscribe()
	if !ok {
		// Draining: hand the final state over and end cleanly.
		w.Header().Set("Content-Type", "text/event-stream")
		writeSSE(w, "snapshot", sw.snapshot())
		writeSSE(w, "end", map[string]string{"reason": "draining"})
		return
	}
	defer sw.unsubscribe(sub)

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	if writeSSE(w, "snapshot", snap) != nil {
		return
	}
	flusher.Flush()
	if snap.Done {
		writeSSE(w, "done", snap)
		flusher.Flush()
		return
	}
	for {
		select {
		case ev, open := <-sub.ch:
			if !open {
				// Drain closed the hub: end the stream cleanly.
				writeSSE(w, "end", map[string]string{"reason": "draining"})
				flusher.Flush()
				return
			}
			if sub.dropped.Swap(false) {
				// We overflowed while this client lagged: resynchronise from
				// a fresh snapshot instead of replaying a gapped stream.
				if writeSSE(w, "resync", sw.snapshot()) != nil {
					return
				}
			}
			if writeSSE(w, "cell", ev) != nil {
				return
			}
			flusher.Flush()
			if ev.Agg.terminal() {
				writeSSE(w, "done", sw.snapshot())
				flusher.Flush()
				return
			}
		case <-r.Context().Done():
			return
		}
	}
}

// servePoll is the long-poll path: return deltas after the client's seq,
// waiting up to the server's poll window when there is nothing new yet.
func (s *Server) servePoll(w http.ResponseWriter, r *http.Request, sw *sweepWatch) {
	after, _ := strconv.ParseUint(r.URL.Query().Get("after"), 10, 64)
	deadline := time.NewTimer(s.pollMax)
	defer deadline.Stop()
	for {
		sw.mu.Lock()
		closed := sw.closed
		seq := sw.seq
		var events []watchEvent
		resync := false
		if seq > after {
			if n := len(sw.hist); n > 0 && sw.hist[0].Seq <= after+1 {
				for _, ev := range sw.hist {
					if ev.Seq > after {
						events = append(events, ev)
					}
				}
			} else {
				// The window left the ring (or this is first contact):
				// resynchronise from a snapshot.
				resync = true
			}
		}
		terminal := sw.agg.terminal()
		sw.mu.Unlock()

		switch {
		case resync:
			snap := sw.snapshot()
			writeJSON(w, http.StatusOK, pollResponse{Snapshot: &snap, Closed: closed})
			return
		case len(events) > 0 || closed || terminal:
			writeJSON(w, http.StatusOK, pollResponse{Events: events, Closed: closed})
			return
		}
		// Nothing new: wait for a publish, the poll window, or the client
		// hanging up — whichever is first.
		wake := sw.waiter()
		select {
		case <-wake:
		case <-deadline.C:
			writeJSON(w, http.StatusOK, pollResponse{})
			return
		case <-r.Context().Done():
			return
		}
	}
}
