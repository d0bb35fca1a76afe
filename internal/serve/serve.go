// Package serve is the sweep fabric behind cmd/dveserve: an HTTP front end
// over the experiments runner and the content-addressed result cache that
// scales from one process to a coordinator plus N worker nodes without
// changing what a client sees. Clients enqueue simulation cells (or whole
// workload×protocol matrices), poll for results by cache key, and read
// service metrics.
//
// Execution is organised around a leased cell queue (lease.go): every
// dequeued cell carries a lease that its worker must renew, expired leases
// re-enqueue the cell with an attempt counter, and a poison cap quarantines
// cells that keep dying. Remote workers (worker.go) pull leases over the
// /fabric API (coordinator.go); when none are registered or all have gone
// silent, the coordinator degrades gracefully to its in-process pool, so a
// lone solo dveserve binary behaves exactly like the pre-fabric service.
//
// Client API:
//
//	POST /run      {"workloads": ["fft"], "protocols": ["deny"],
//	                "classify": false}
//	               -> 200 {"cells": [{"workload", "protocol", "key",
//	                  "status": "cached"|"queued"}]}
//	               -> 429 when the queue cannot absorb every new cell
//	                  (already-accepted cells stay queued and are listed)
//	               -> 503 while draining
//	GET /result/<key> -> 200 cached payload | 202 queued/running
//	                  | 500 failed (body has the cell error) | 404 unknown
//	GET /metrics   -> 200 service counters + cache statistics (JSON)
//	GET /metrics/prom -> 200 the same metrics in Prometheus text format
//	GET /healthz   -> 200 while the process is alive (liveness)
//	GET /readyz    -> 200 accepting intake | 503 draining (readiness; flips
//	                  before intake closes so load balancers stop routing
//	                  ahead of the 503s)
//
// Resubmitting a matrix is idempotent: cells are keyed by the results
// content hash, so a cell that is cached answers from disk, and one that is
// queued or running is attached to, never duplicated.
//
// Results are never invented by the service: a 200 from /result is always
// the validated cache entry, so a client sees exactly the bytes a local
// cached run would.
package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dve/internal/dve"
	"dve/internal/experiments"
	"dve/internal/obslog"
	"dve/internal/results"
	"dve/internal/stats"
	"dve/internal/telemetry"
	"dve/internal/topology"
	"dve/internal/workload"
)

// Roles the service can run as. A worker node is not a Server at all — it
// is a Worker (worker.go) pointed at a coordinator.
const (
	RoleSolo        = "solo"        // in-process pool only (the PR 4 service)
	RoleCoordinator = "coordinator" // remote workers preferred, local pool as fallback
)

// Config sizes the service.
type Config struct {
	// Runner executes cells; its Cache must be set (the cache is the only
	// place results live — the service holds no payloads in memory).
	Runner experiments.Runner
	// Workers is the in-process simulation pool size. 0 means 4. In
	// coordinator role the pool only runs while degraded (no healthy remote
	// workers).
	Workers int
	// QueueDepth bounds cells waiting for a lease; enqueues past it get
	// 429. 0 means 64.
	QueueDepth int
	// Role is RoleSolo (default) or RoleCoordinator.
	Role string
	// LeaseTTL is how long a remote worker may hold a cell between
	// heartbeats before the coordinator re-enqueues it. 0 means 30s.
	LeaseTTL time.Duration
	// WorkerTTL is how long a registered worker may go silent before it is
	// counted unhealthy (degraded-mode input). 0 means 3×LeaseTTL.
	WorkerTTL time.Duration
	// MaxAttempts caps lease grants per cell before it is quarantined as
	// poisoned. 0 means 5.
	MaxAttempts int
	// DrainGrace is how long Drain holds between flipping /readyz to 503
	// and closing intake, giving load balancers time to stop routing.
	// 0 means no grace window.
	DrainGrace time.Duration
	// Log receives structured lifecycle events (may be nil: every emission
	// is a nil-safe no-op, pinned at zero allocations).
	Log *obslog.Logger
	// TraceEvents caps the fabric lifecycle trace buffer. 0 means 32768.
	TraceEvents int
}

// defaultTraceEvents caps the fabric trace buffer when Config leaves it 0.
const defaultTraceEvents = 32768

// job is one queued simulation cell. sweep/cell are the span IDs minted at
// POST /run: they ride the job through the lease queue and out to fabric
// workers, so every log line and trace record of this cell's life can be
// joined back to the submission that caused it.
type job struct {
	key      results.Key
	spec     workload.Spec
	cfg      topology.Config
	classify bool
	sweep    uint64
	cell     uint64
}

// jobState tracks a cell the service has accepted. States move
// queued -> running -> done | failed; done cells answer from the cache.
// A re-enqueued cell (lease expiry, worker-reported failure) shows
// "running" until its next lease lands — to a polling client both are 202.
type jobState struct {
	status string // "queued", "running", "done", "failed"
	err    string // set when failed
	job    job    // names the cell in a late result's event
}

// Server is the sweep service. Create with New, mount Handler, call Start,
// and Drain on shutdown.
type Server struct {
	runner  experiments.Runner
	cache   *results.Store
	workers int
	depth   int
	role    string

	leaseTTL   time.Duration
	workerTTL  time.Duration
	drainGrace time.Duration

	lq *leaseQueue
	wg sync.WaitGroup

	mu       sync.Mutex
	jobs     map[results.Key]*jobState
	draining bool

	// ready is the /readyz signal; it flips false at the top of Drain,
	// strictly before intake starts answering 503.
	ready atomic.Bool

	// remotes is the fabric worker registry. Guarded by remotesMu, which is
	// never held while taking mu or the lease-queue lock.
	remotesMu sync.Mutex
	remotes   map[string]*remoteWorker

	// degraded is true when the local pool is the execution fallback
	// (coordinator role with no healthy remote workers). Solo role never
	// sets it: local execution there is the design, not a degradation.
	degraded atomic.Bool

	// st is the event stream every transition goes through; its folds are
	// the log, the trace, the /watch hub and the metrics ledger (events.go).
	// sweepSeq mints sweep IDs at /run.
	st       *stream
	sweepSeq atomic.Uint64
	pollMax  time.Duration

	tickStop chan struct{}
	tickDone chan struct{}

	// started anchors the uptime report and the lease clock
	// (stats.Stopwatch is the sanctioned wall clock; the service is
	// measurement infrastructure, not simulation).
	started stats.Stopwatch

	// sleep is the drain-grace pause; swapped by tests for determinism.
	sleep func(time.Duration)

	// runCell executes one cell; defaults to the runner's cached path.
	// Tests swap it to control timing without running simulations.
	runCell func(spec workload.Spec, cfg topology.Config, classify bool) (*dve.Result, bool, error)
}

// remoteWorker is one registered fabric worker.
type remoteWorker struct {
	id       string
	lastSeen time.Duration // on the server's monotonic clock
}

// New builds a server from the config.
func New(cfg Config) (*Server, error) {
	if cfg.Runner.Cache == nil {
		return nil, fmt.Errorf("serve: Runner.Cache must be set")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	switch cfg.Role {
	case "":
		cfg.Role = RoleSolo
	case RoleSolo, RoleCoordinator:
	default:
		return nil, fmt.Errorf("serve: unknown role %q (solo|coordinator)", cfg.Role)
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 30 * time.Second
	}
	if cfg.WorkerTTL <= 0 {
		cfg.WorkerTTL = 3 * cfg.LeaseTTL
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 5
	}
	if cfg.TraceEvents <= 0 {
		cfg.TraceEvents = defaultTraceEvents
	}
	s := &Server{
		runner:     cfg.Runner,
		cache:      cfg.Runner.Cache,
		workers:    cfg.Workers,
		depth:      cfg.QueueDepth,
		role:       cfg.Role,
		leaseTTL:   cfg.LeaseTTL,
		workerTTL:  cfg.WorkerTTL,
		drainGrace: cfg.DrainGrace,
		jobs:       make(map[results.Key]*jobState),
		remotes:    make(map[string]*remoteWorker),
		started:    stats.StartWallClock(),
		sleep:      time.Sleep,
		pollMax:    25 * time.Second,
	}
	s.st = newStream(s.started.Elapsed, cfg.Log, cfg.TraceEvents)
	s.lq = newLeaseQueue(cfg.LeaseTTL, cfg.MaxAttempts, s.st)
	s.lq.poisoned = func(j job, attempts int, lastErr string) {
		s.setState(j.key, "failed", poisonDetail(attempts, lastErr))
	}
	s.runCell = s.runner.RunCell
	s.ready.Store(true)
	// A coordinator with no workers yet is degraded from the first cell: the
	// local pool covers until the fleet arrives.
	s.degraded.Store(cfg.Role == RoleCoordinator)
	return s, nil
}

// Start launches the in-process pool and the lease-expiry ticker.
func (s *Server) Start() {
	for i := 0; i < s.workers; i++ {
		s.wg.Add(1)
		go s.localWorker(i)
	}
	s.tickStop = make(chan struct{})
	s.tickDone = make(chan struct{})
	every := s.leaseTTL / 4
	if every < 5*time.Millisecond {
		every = 5 * time.Millisecond
	}
	go func() {
		defer close(s.tickDone)
		for {
			select {
			case <-s.tickStop:
				return
			case <-time.After(every):
				s.lq.tick()
				s.refreshDegraded()
			}
		}
	}()
}

// Drain shuts down gracefully, in load-balancer-friendly order: /readyz
// flips to 503 first, the grace window elapses, then intake closes (503 on
// /run), queued cells and outstanding leases finish wherever they are
// (remote workers keep completing; the local pool covers anything
// re-enqueued by an expiry), and Drain returns once the queue is empty and
// the pool has exited. Safe to call more than once; only the first call
// drains.
func (s *Server) Drain() {
	s.ready.Store(false)
	if s.drainGrace > 0 {
		s.sleep(s.drainGrace)
	}
	s.mu.Lock()
	already := s.draining
	s.draining = true
	s.mu.Unlock()
	if already {
		return
	}
	s.st.emit(evDrainBegin, obslog.Event{})
	s.lq.close()
	s.lq.waitEmpty()
	s.wg.Wait()
	if s.tickStop != nil {
		close(s.tickStop)
		<-s.tickDone
	}
	// Every queued cell has now resolved: drain_done closes the live
	// streams, so /watch consumers get their final aggregate and a clean
	// end-of-stream.
	s.st.emit(evDrainDone, obslog.Event{})
}

// localAllowed gates the in-process pool: always in solo role, only while
// degraded in coordinator role (healthy remote workers own the queue).
// Called under the lease-queue lock, so it must stay non-blocking.
func (s *Server) localAllowed() bool {
	return s.role == RoleSolo || s.degraded.Load()
}

func (s *Server) localWorker(i int) {
	defer s.wg.Done()
	owner := fmt.Sprintf("local-%d", i)
	for {
		l, ok := s.lq.acquire(owner, true, s.localAllowed)
		if !ok {
			return
		}
		s.runLease(l)
	}
}

// runLease executes one locally-leased cell. A local failure is final (a
// deterministic simulation fails the same way again in-process, and there
// is no other failure domain to try), matching the pre-fabric pool exactly.
func (s *Server) runLease(l *lease) {
	j := l.job
	s.setState(j.key, "running", "")
	res, _, err := s.runCell(j.spec, j.cfg, j.classify)
	// The real runner stores its result itself; this backstop keeps
	// /result serving even when a swapped-in runCell does not.
	if err == nil && !s.cache.Contains(j.key) {
		err = s.cache.Put(j.key, res)
	}
	s.finish(l.id, j, l.owner, err)
}

// finish records a cell's outcome: the job table first, so a client that
// sees the outcome on any view finds /result already agreeing, then the
// lease retirement, whose event every view folds.
func (s *Server) finish(id uint64, j job, owner string, err error) {
	status, errMsg := "done", ""
	if err != nil {
		status, errMsg = "failed", err.Error()
	}
	s.setState(j.key, status, errMsg)
	s.lq.retire(id, j, owner, errMsg)
}

// setState writes the job table, the /result authority.
func (s *Server) setState(key results.Key, status, errMsg string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if st, ok := s.jobs[key]; ok {
		st.status, st.err = status, errMsg
	}
}

// sweepStr renders a sweep ID for log correlation ("" when the job was not
// minted by /run, e.g. in unit tests that drive the queue directly).
func sweepStr(sweep uint64) string {
	if sweep == 0 {
		return ""
	}
	return fmt.Sprintf("%d", sweep)
}

// cellStr renders the per-cell span ID within a sweep.
func cellStr(sweep, cell uint64) string {
	if sweep == 0 {
		return ""
	}
	return fmt.Sprintf("%d/c%d", sweep, cell)
}

// runRequest is the POST /run body. Workload/Protocol enqueue one cell;
// Workloads/Protocols enqueue their cross product. Singular and plural
// forms combine.
type runRequest struct {
	Workload  string   `json:"workload,omitempty"`
	Protocol  string   `json:"protocol,omitempty"`
	Workloads []string `json:"workloads,omitempty"`
	Protocols []string `json:"protocols,omitempty"`
	Classify  bool     `json:"classify,omitempty"`
}

// cellStatus is one cell's disposition in the POST /run response.
type cellStatus struct {
	Workload string `json:"workload"`
	Protocol string `json:"protocol"`
	Key      string `json:"key"`
	// Status is "cached" (result already on disk) or "queued".
	Status string `json:"status"`
}

// runResponse answers POST /run. Sweep is the ID minted for this
// submission: GET /watch/<sweep> streams the matrix's live progress, and
// every log line and trace span of these cells carries it. On 429, Error is
// set and Cells lists the cells accepted before saturation.
type runResponse struct {
	Sweep uint64       `json:"sweep"`
	Cells []cellStatus `json:"cells"`
	Error string       `json:"error,omitempty"`
}

// Metrics is the GET /metrics payload. UptimeSeconds and Running make a
// wedged pool visible: a service whose Running stays pinned at Workers with
// QueueLen > 0 while Completed stops moving is stuck, which cumulative
// counters alone cannot show. The lease and worker fields are the fabric's
// fault ledger: expirations, re-enqueues, poisoned cells and degraded-mode
// transitions are each visible the moment they happen.
type Metrics struct {
	Role          string        `json:"role"`
	Ready         bool          `json:"ready"`
	Workers       int           `json:"workers"`
	QueueDepth    int           `json:"queue_depth"`
	QueueLen      int           `json:"queue_len"`
	Leased        int           `json:"leased"`
	Running       int           `json:"running"`
	UptimeSeconds float64       `json:"uptime_seconds"`
	Enqueued      uint64        `json:"enqueued"`
	Completed     uint64        `json:"completed"`
	Failed        uint64        `json:"failed"`
	Rejected      uint64        `json:"rejected"`
	Draining      bool          `json:"draining"`
	Cache         results.Stats `json:"cache"`

	LeaseExpired        uint64 `json:"lease_expired"`
	Requeued            uint64 `json:"requeued"`
	Poisoned            uint64 `json:"poisoned"`
	Renewals            uint64 `json:"renewals"`
	Heartbeats          uint64 `json:"heartbeats"`
	WorkersRegistered   int    `json:"workers_registered"`
	WorkersHealthy      int    `json:"workers_healthy"`
	Degraded            bool   `json:"degraded"`
	DegradedTransitions uint64 `json:"degraded_transitions"`
	RemoteCompleted     uint64 `json:"remote_completed"`
	RemoteFailed        uint64 `json:"remote_failed"`

	// Observability and placement inputs (ROADMAP item 1): the cache hit
	// rate and per-node load feed cache-aware placement; the lease-wait
	// distribution is the starved-for-workers signal; PoisonedCells is the
	// fault ledger's quarantine list (capped).
	CacheHitRate  float64         `json:"cache_hit_rate"`
	LeaseWaitMs   stats.Histogram `json:"lease_wait_ms"`
	Sweeps        uint64          `json:"sweeps"`
	Watchers      int             `json:"watchers"`
	TraceEvents   int             `json:"trace_events"`
	TraceDropped  uint64          `json:"trace_dropped"`
	LogEmitted    uint64          `json:"log_emitted"`
	LogSinkFails  uint64          `json:"log_sink_fails"`
	Nodes         []NodeMetrics   `json:"nodes,omitempty"`
	PoisonedCells []string        `json:"poisoned_cells,omitempty"`
}

// NodeMetrics is one fabric worker's row in the placement ledger.
type NodeMetrics struct {
	ID        string `json:"id"`
	Healthy   bool   `json:"healthy"`
	Inflight  int    `json:"inflight"` // leases held right now
	Leased    uint64 `json:"leased"`   // leases ever granted
	Completed uint64 `json:"completed"`
	Failed    uint64 `json:"failed"`
}

// Handler returns the service's HTTP routes (client API + fabric API).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/run", s.handleRun)
	mux.HandleFunc("/result/", s.handleResult)
	mux.HandleFunc("/watch/", s.handleWatch)
	mux.HandleFunc("/trace", s.handleTrace)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/metrics/prom", s.handlePromMetrics)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/fabric/register", s.handleFabricRegister)
	mux.HandleFunc("/fabric/lease", s.handleFabricLease)
	mux.HandleFunc("/fabric/renew", s.handleFabricRenew)
	mux.HandleFunc("/fabric/complete", s.handleFabricComplete)
	mux.HandleFunc("/fabric/fail", s.handleFabricFail)
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// handleHealthz is liveness: 200 whenever the process can answer at all.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":         "ok",
		"role":           s.role,
		"uptime_seconds": s.started.Elapsed().Seconds(),
	})
}

// handleReadyz is readiness: 503 the moment Drain begins, before intake
// closes, so a load balancer polling it stops routing ahead of the 503s a
// client would otherwise see.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if !s.ready.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req runRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, fmt.Sprintf("bad request body: %v", err), http.StatusBadRequest)
		return
	}
	names := req.Workloads
	if req.Workload != "" {
		names = append(names, req.Workload)
	}
	protoNames := req.Protocols
	if req.Protocol != "" {
		protoNames = append(protoNames, req.Protocol)
	}
	if len(names) == 0 || len(protoNames) == 0 {
		http.Error(w, "need at least one workload and one protocol", http.StatusBadRequest)
		return
	}
	// Resolve everything before touching the queue so a bad name rejects
	// the whole request instead of half-enqueuing a matrix.
	specs := make([]workload.Spec, 0, len(names))
	for _, n := range names {
		spec, ok := workload.ByName(n, 16)
		if !ok {
			http.Error(w, fmt.Sprintf("unknown workload %q", n), http.StatusBadRequest)
			return
		}
		specs = append(specs, spec)
	}
	protos := make([]topology.Protocol, 0, len(protoNames))
	for _, n := range protoNames {
		p, err := topology.ParseProtocol(n)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		protos = append(protos, p)
	}

	sweep := s.sweepSeq.Add(1)
	resp := runResponse{Sweep: sweep, Cells: make([]cellStatus, 0, len(specs)*len(protos))}
	s.st.emit(evSweepAccepted, obslog.Event{Sweep: sweepStr(sweep), N: uint64(len(specs) * len(protos))})
	var cellIdx uint64
	for _, spec := range specs {
		for _, p := range protos {
			cfg := topology.Default(p)
			key, err := s.runner.CellKey(spec, cfg, req.Classify)
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			cs := cellStatus{Workload: spec.Name, Protocol: p.String(), Key: string(key)}
			code, err := s.enqueue(job{
				key: key, spec: spec, cfg: cfg, classify: req.Classify,
				sweep: sweep, cell: cellIdx,
			})
			cellIdx++
			if err != nil {
				resp.Error = err.Error()
				writeJSON(w, code, resp)
				return
			}
			cs.Status = "cached"
			if code == http.StatusAccepted {
				cs.Status = "queued"
			}
			resp.Cells = append(resp.Cells, cs)
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// enqueue admits one cell. It returns StatusOK when the result is already
// on disk, StatusAccepted when the cell was (or already is) queued, and an
// error with 503 (draining) or 429 (queue saturated). Submission is
// idempotent on the content key: a queued or running cell is attached to,
// never enqueued twice. Intake events are emitted under s.mu, so they
// reach the stream in job-table order.
func (s *Server) enqueue(j job) (int, error) {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return http.StatusServiceUnavailable, fmt.Errorf("draining: not accepting new cells")
	}
	if st, ok := s.jobs[j.key]; ok && st.status != "failed" {
		// Already queued or running: attach, nothing to add. A failed cell
		// may be retried by enqueueing again, and a done cell whose cache
		// entry has since been evicted or corrupted is forgotten and
		// re-enqueued — resubmission is the recovery path for post-
		// completion cache damage.
		if st.status != "done" {
			ev := cellEvent(j)
			ev.Detail = st.status
			s.st.emit(evAttached, ev)
			s.mu.Unlock()
			return http.StatusAccepted, nil
		}
		delete(s.jobs, j.key)
	}
	if s.cache.Contains(j.key) {
		s.jobs[j.key] = &jobState{status: "done", job: j}
		s.st.emit(evCacheHit, cellEvent(j))
		s.mu.Unlock()
		return http.StatusOK, nil
	}
	if !s.lq.enqueue(j, s.depth) {
		ev := cellEvent(j)
		ev.Detail = "queue saturated"
		s.st.emit(evRejected, ev)
		s.mu.Unlock()
		return http.StatusTooManyRequests,
			fmt.Errorf("queue saturated (%d cells deep): retry later", s.depth)
	}
	s.jobs[j.key] = &jobState{status: "queued", job: j}
	s.mu.Unlock()
	return http.StatusAccepted, nil
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	key := results.Key(strings.TrimPrefix(r.URL.Path, "/result/"))
	if key == "" {
		http.Error(w, "missing key", http.StatusBadRequest)
		return
	}
	s.mu.Lock()
	st, tracked := s.jobs[key]
	var status, errMsg string
	if tracked {
		status, errMsg = st.status, st.err
	}
	s.mu.Unlock()
	if tracked {
		switch status {
		case "queued", "running":
			writeJSON(w, http.StatusAccepted, map[string]string{"status": status})
			return
		case "failed":
			writeJSON(w, http.StatusInternalServerError,
				map[string]string{"status": "failed", "error": errMsg})
			return
		}
	}
	payload, ok := s.cache.GetRaw(key)
	if !ok {
		http.Error(w, "unknown key", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(payload)
}

// snapshotMetrics assembles the current Metrics: the ledger's counters,
// then the job table, worker registry and the folds' own meta-counters.
func (s *Server) snapshotMetrics() Metrics {
	m := s.st.ledgerMetrics()
	s.mu.Lock()
	m.Draining = s.draining
	for _, st := range s.jobs {
		if st.status == "running" {
			m.Running++
		}
	}
	s.mu.Unlock()
	m.WorkersRegistered, m.WorkersHealthy = s.workerCounts()
	cutoff := s.st.now() - s.workerTTL
	s.remotesMu.Lock()
	for i := range m.Nodes {
		rw, ok := s.remotes[m.Nodes[i].ID]
		m.Nodes[i].Healthy = ok && rw.lastSeen >= cutoff
	}
	s.remotesMu.Unlock()
	m.Role, m.Ready, m.Workers, m.QueueDepth = s.role, s.ready.Load(), s.workers, s.depth
	m.UptimeSeconds = s.started.Elapsed().Seconds()
	m.Cache = s.cache.Stats()
	m.CacheHitRate = m.Cache.HitRate()
	m.Degraded = s.degraded.Load()
	m.Watchers = s.st.hub.watchers()
	m.TraceEvents, m.TraceDropped = s.st.trace.b.Events(), s.st.trace.b.Dropped()
	m.LogEmitted, m.LogSinkFails = s.st.log.Emitted(), s.st.log.SinkFailures()
	return m
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	writeJSON(w, http.StatusOK, s.snapshotMetrics())
}

// handleTrace serves the wall-clock cell-lifecycle trace as Chrome
// trace-event JSON (load in Perfetto). Valid at any moment: spans still
// open are closed in the output only, so a live sweep renders cleanly.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	s.st.trace.b.WriteTrace(w)
}

// handlePromMetrics serves the same service metrics in Prometheus text
// exposition format (for scraping alongside the JSON /metrics).
func (s *Server) handlePromMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	m := s.snapshotMetrics()
	reg := telemetry.NewRegistry()
	gauge := func(name, help string, v float64) { reg.Gauge(name, help, func() float64 { return v }) }
	counter := func(name, help string, v uint64) { reg.Counter(name, help, func() float64 { return float64(v) }) }
	node := func(name, help string, f func(NodeMetrics) float64) {
		reg.LabeledGauge(name, help, "node", func() []telemetry.LabeledValue { return nodeSamples(m.Nodes, f) })
	}
	gauge("dveserve_uptime_seconds", "host seconds since the service started", m.UptimeSeconds)
	gauge("dveserve_ready", "1 while accepting intake (readyz)", b2f(m.Ready))
	gauge("dveserve_workers", "in-process simulation pool size", float64(m.Workers))
	gauge("dveserve_queue_depth", "queue capacity", float64(m.QueueDepth))
	gauge("dveserve_queue_len", "cells waiting for a lease (transition-time gauge)", float64(m.QueueLen))
	gauge("dveserve_leased", "cells out under a live lease", float64(m.Leased))
	gauge("dveserve_running", "cells executing right now", float64(m.Running))
	gauge("dveserve_draining", "1 while shutting down gracefully", b2f(m.Draining))
	counter("dveserve_enqueued_total", "cells accepted into the queue", m.Enqueued)
	counter("dveserve_completed_total", "cells finished successfully", m.Completed)
	counter("dveserve_failed_total", "cells that errored (incl. poisoned)", m.Failed)
	counter("dveserve_rejected_total", "enqueues refused with 429", m.Rejected)
	counter("dveserve_lease_expired_total", "leases that passed their deadline", m.LeaseExpired)
	counter("dveserve_requeued_total", "cells re-enqueued after expiry or worker failure", m.Requeued)
	counter("dveserve_poisoned_total", "cells quarantined past the attempt cap", m.Poisoned)
	counter("dveserve_renewals_total", "lease renewals granted", m.Renewals)
	counter("dveserve_heartbeats_total", "fabric worker heartbeats received", m.Heartbeats)
	gauge("dveserve_workers_registered", "fabric workers ever registered", float64(m.WorkersRegistered))
	gauge("dveserve_workers_healthy", "fabric workers seen within the liveness window", float64(m.WorkersHealthy))
	gauge("dveserve_degraded", "1 while the local pool is covering for absent workers", b2f(m.Degraded))
	counter("dveserve_degraded_transitions_total", "degraded-mode entries and exits", m.DegradedTransitions)
	counter("dveserve_remote_completed_total", "cells completed by fabric workers", m.RemoteCompleted)
	counter("dveserve_remote_failed_total", "cell failures reported by fabric workers", m.RemoteFailed)
	counter("dveserve_cache_hits_total", "result-cache hits", m.Cache.Hits)
	counter("dveserve_cache_misses_total", "result-cache misses", m.Cache.Misses)
	counter("dveserve_cache_corrupt_total", "cache entries rejected as corrupt", m.Cache.Corrupt)
	counter("dveserve_cache_swept_total", "orphaned temp files swept at open", m.Cache.Swept)
	counter("dveserve_cache_puts_total", "cache writes", m.Cache.Puts)
	gauge("dveserve_cache_hit_rate", "result-cache hits per lookup (placement input)", m.CacheHitRate)
	reg.Histogram("dveserve_lease_wait_ms", "enqueue-to-grant latency distribution",
		func() *stats.Histogram { return &m.LeaseWaitMs })
	counter("dveserve_sweeps_total", "sweep IDs minted by /run", m.Sweeps)
	gauge("dveserve_watchers", "attached /watch subscribers", float64(m.Watchers))
	gauge("dveserve_trace_events", "buffered fabric trace records", float64(m.TraceEvents))
	counter("dveserve_trace_events_dropped_total", "fabric trace records dropped at the cap", m.TraceDropped)
	counter("dveserve_log_events_total", "structured log events emitted", m.LogEmitted)
	counter("dveserve_log_sink_failures_total", "structured log events a sink refused", m.LogSinkFails)
	node("dveserve_node_inflight", "leases held right now, by fabric node",
		func(n NodeMetrics) float64 { return float64(n.Inflight) })
	node("dveserve_node_leased", "leases ever granted, by fabric node",
		func(n NodeMetrics) float64 { return float64(n.Leased) })
	node("dveserve_node_completed", "cells completed, by fabric node",
		func(n NodeMetrics) float64 { return float64(n.Completed) })
	node("dveserve_node_failed", "cell failures, by fabric node",
		func(n NodeMetrics) float64 { return float64(n.Failed) })
	node("dveserve_node_healthy", "1 while the node is inside its liveness window",
		func(n NodeMetrics) float64 { return b2f(n.Healthy) })
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	reg.WritePrometheus(w)
}

// nodeSamples projects one NodeMetrics column into labeled gauge samples
// (already ID-sorted by snapshotMetrics, so scrapes are deterministic).
func nodeSamples(nodes []NodeMetrics, f func(NodeMetrics) float64) []telemetry.LabeledValue {
	out := make([]telemetry.LabeledValue, 0, len(nodes))
	for _, n := range nodes {
		out = append(out, telemetry.LabeledValue{Label: n.ID, Value: f(n)})
	}
	return out
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
