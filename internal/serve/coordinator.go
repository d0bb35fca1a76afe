package serve

// The /fabric API is the coordinator half of the worker protocol: remote
// dveserve worker processes register, pull cell leases, heartbeat renewals
// while a cell runs, and push results (or failures) back. The protocol is
// built to be safe under the faults the chaos harness injects:
//
//   - every message may be dropped, delayed, or duplicated: register,
//     renew, complete and fail are all idempotent, and a completion for a
//     lease that already expired is still accepted (the simulation is
//     deterministic, so the late result is exactly the one a re-run would
//     produce — completeKey cancels the cell's next incarnation instead of
//     wasting a worker on it);
//   - payloads may be corrupted in flight: complete carries a sha256 over
//     the result payload and a mismatch is a 409 that leaves the lease
//     untouched, so the worker's retry (with fresh bytes) heals it;
//   - workers may die silently: any fabric RPC refreshes the worker's
//     liveness window, and the lease ticker re-enqueues what they held.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"dve/internal/obslog"
	"dve/internal/results"
	"dve/internal/topology"
	"dve/internal/workload"
)

// registerRequest announces (or refreshes) a worker.
type registerRequest struct {
	Worker string `json:"worker"`
}

// registerResponse hands the worker its operating parameters, so the fleet
// follows the coordinator's configuration rather than per-node flags.
type registerResponse struct {
	LeaseTTLMillis int64 `json:"lease_ttl_ms"`
}

// leaseRequest asks for one cell.
type leaseRequest struct {
	Worker string `json:"worker"`
}

// leaseGrant is one leased cell: everything a worker needs to reproduce the
// cell bit-for-bit, including the scale, so a worker started with different
// flags still simulates exactly what the coordinator keyed. Key lets the
// worker cross-check its own CellKey and refuse version-skewed work.
type leaseGrant struct {
	Lease      uint64          `json:"lease"`
	Key        string          `json:"key"`
	Workload   workload.Spec   `json:"workload"`
	Config     topology.Config `json:"config"`
	Classify   bool            `json:"classify"`
	WarmupOps  uint64          `json:"warmup_ops"`
	MeasureOps uint64          `json:"measure_ops"`
	// Sweep and Cell are the span IDs minted at /run, propagated so the
	// worker's own log lines join the coordinator's trace on the same keys.
	// Sweep 0 means the cell predates ID minting (or a test enqueued it
	// directly).
	Sweep uint64 `json:"sweep,omitempty"`
	Cell  uint64 `json:"cell,omitempty"`
}

// renewRequest heartbeats a held lease.
type renewRequest struct {
	Worker string `json:"worker"`
	Lease  uint64 `json:"lease"`
}

// completeRequest uploads a finished cell. Sum is sha256 over the canonical
// payload bytes, end-to-end: computed by the worker before send, verified
// by the coordinator after receive, so link corruption cannot poison the
// shared cache.
type completeRequest struct {
	Worker  string          `json:"worker"`
	Lease   uint64          `json:"lease"`
	Key     string          `json:"key"`
	Payload json.RawMessage `json:"payload"`
	Sum     string          `json:"sum"`
}

// failRequest reports a cell the worker could not finish.
type failRequest struct {
	Worker string `json:"worker"`
	Lease  uint64 `json:"lease"`
	Error  string `json:"error"`
}

// decodeFabric parses a fabric request body, 400ing malformed ones.
func decodeFabric(w http.ResponseWriter, r *http.Request, v any) bool {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return false
	}
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		http.Error(w, fmt.Sprintf("bad fabric body: %v", err), http.StatusBadRequest)
		return false
	}
	return true
}

// touchWorker refreshes a worker's liveness window, registering it on first
// contact (a coordinator restart must not orphan a live fleet that only
// registered with its predecessor). It returns the worker's ID.
func (s *Server) touchWorker(id string) string {
	if id == "" {
		id = "anonymous"
	}
	s.remotesMu.Lock()
	rw, ok := s.remotes[id]
	if !ok {
		rw = &remoteWorker{id: id}
		s.remotes[id] = rw
	}
	rw.lastSeen = s.st.now()
	s.remotesMu.Unlock()
	if !ok {
		s.st.emit(evWorkerRegistered, obslog.Event{Worker: id})
	}
	s.refreshDegraded()
	return id
}

// workerCounts reports (registered, healthy) fabric workers. Healthy means
// seen within the liveness window.
func (s *Server) workerCounts() (registered, healthy int) {
	cutoff := s.st.now() - s.workerTTL
	s.remotesMu.Lock()
	defer s.remotesMu.Unlock()
	for _, rw := range s.remotes {
		registered++
		if rw.lastSeen >= cutoff {
			healthy++
		}
	}
	return registered, healthy
}

// refreshDegraded recomputes the degraded flag (coordinator role with zero
// healthy workers) and counts the transition. The local pool is gated on
// this flag, so a transition broadcasts the lease queue to wake it up.
func (s *Server) refreshDegraded() {
	if s.role != RoleCoordinator {
		return
	}
	_, healthy := s.workerCounts()
	next := healthy == 0
	if s.degraded.Swap(next) != next {
		s.lq.broadcast()
		event := evDegradedEnter
		if !next {
			event = evDegradedExit
		}
		s.st.emit(event, obslog.Event{N: uint64(healthy)})
	}
}

func (s *Server) handleFabricRegister(w http.ResponseWriter, r *http.Request) {
	var req registerRequest
	if !decodeFabric(w, r, &req) {
		return
	}
	s.touchWorker(req.Worker)
	writeJSON(w, http.StatusOK, registerResponse{
		LeaseTTLMillis: s.leaseTTL.Milliseconds(),
	})
}

// handleFabricLease grants the oldest pending cell, or 204 when the queue
// has nothing. Leasing stays open during drain: remote workers finishing
// the queue is the drain happy path.
func (s *Server) handleFabricLease(w http.ResponseWriter, r *http.Request) {
	var req leaseRequest
	if !decodeFabric(w, r, &req) {
		return
	}
	l, ok := s.lq.tryLease(s.touchWorker(req.Worker), false)
	if !ok {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	s.setState(l.job.key, "running", "")
	writeJSON(w, http.StatusOK, leaseGrant{
		Lease:      l.id,
		Key:        string(l.job.key),
		Workload:   l.job.spec,
		Config:     l.job.cfg,
		Classify:   l.job.classify,
		WarmupOps:  s.runner.Scale.WarmupOps,
		MeasureOps: s.runner.Scale.MeasureOps,
		Sweep:      l.job.sweep,
		Cell:       l.job.cell,
	})
}

// handleFabricRenew extends a lease. 410 tells the worker its lease is gone
// (expired and re-enqueued, or already completed): it must abandon the cell
// — the next incarnation belongs to someone else.
func (s *Server) handleFabricRenew(w http.ResponseWriter, r *http.Request) {
	var req renewRequest
	if !decodeFabric(w, r, &req) {
		return
	}
	if !s.lq.renew(req.Lease, s.touchWorker(req.Worker)) {
		writeJSON(w, http.StatusGone, map[string]string{"status": "lease gone"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "renewed"})
}

// handleFabricComplete lands a finished cell in the cache. Accepts late and
// duplicate completions (see the package comment on protocol safety).
func (s *Server) handleFabricComplete(w http.ResponseWriter, r *http.Request) {
	var req completeRequest
	if !decodeFabric(w, r, &req) {
		return
	}
	worker := s.touchWorker(req.Worker)
	sum, err := results.PayloadSum(req.Payload)
	if err != nil || sum != req.Sum {
		// In-flight corruption: reject with 409 (the worker's retryable
		// class) without touching the lease. The worker re-sends fresh
		// bytes while its heartbeats keep the lease alive.
		s.st.emit(evCompleteCorrupt, obslog.Event{
			Worker: worker, Lease: req.Lease, Key: req.Key, Detail: "payload checksum mismatch",
		})
		http.Error(w, "payload checksum mismatch", http.StatusConflict)
		return
	}
	key := results.Key(req.Key)
	s.mu.Lock()
	st, known := s.jobs[key]
	var status string
	var j job
	if known {
		status, j = st.status, st.job
	}
	s.mu.Unlock()
	if !known {
		// Never submitted here (or a coordinator restart lost the table):
		// nothing to attach the result to.
		writeJSON(w, http.StatusGone, map[string]string{"status": "unknown cell"})
		return
	}
	leased, live := s.lq.leaseKey(req.Lease)
	switch {
	case live && leased != key:
		// The lease and the payload disagree: treat as a failed attempt so
		// the cell is re-enqueued rather than mis-filed.
		s.lq.fail(req.Lease, "complete for mismatched key")
		http.Error(w, "lease/key mismatch", http.StatusBadRequest)
		return
	case !live && status == "done" && s.cache.Contains(key):
		// Lease already gone and the cell done: a duplicate message. (A done
		// cell whose entry has since been corrupted on disk falls through,
		// and the fresh payload re-lands it.)
		writeJSON(w, http.StatusOK, map[string]string{"status": "duplicate"})
		return
	}
	if !s.cache.Contains(key) {
		err = s.cache.Put(key, req.Payload)
	}
	// A lease that expired meanwhile makes this a late result: still the
	// deterministic truth, so retire cancels the cell's requeued
	// incarnation instead of re-running it.
	s.finish(req.Lease, j, worker, err)
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, map[string]string{"error": err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "done"})
}

// handleFabricFail returns a cell to the queue (or poisons it past the
// attempt cap). Unlike a local-pool failure — which is final, because a
// deterministic simulation fails the same way again in this process — a
// worker-reported failure may be environmental (that node's disk, that node's memory), so
// the cell gets another lease in another failure domain.
func (s *Server) handleFabricFail(w http.ResponseWriter, r *http.Request) {
	var req failRequest
	if !decodeFabric(w, r, &req) {
		return
	}
	worker := s.touchWorker(req.Worker)
	reason := req.Error
	if reason == "" {
		reason = "worker reported failure"
	}
	s.st.emit(evFailReported, obslog.Event{Worker: worker, Lease: req.Lease, Detail: reason})
	s.lq.fail(req.Lease, fmt.Sprintf("worker %s: %s", worker, reason))
	writeJSON(w, http.StatusOK, map[string]string{"status": "requeued"})
}

// The fabric endpoint paths, kept next to their handlers.
const (
	pathRegister = "/fabric/register"
	pathLease    = "/fabric/lease"
	pathRenew    = "/fabric/renew"
	pathComplete = "/fabric/complete"
	pathFail     = "/fabric/fail"
)

// leaseDeadlineHint returns a conservative renewal cadence for a TTL.
func leaseDeadlineHint(ttl time.Duration) time.Duration { return ttl / 3 }
