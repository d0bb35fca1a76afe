package serve

// Worker is the remote half of the sweep fabric: a loop that pulls cell
// leases from a coordinator's /fabric API, simulates them, heartbeats while
// they run, and pushes the result payload back. Every RPC carries its own
// timeout and retries with exponential backoff plus full jitter — the
// worker→coordinator path is the one that crosses failure domains, so it
// assumes drops, delays, duplicates and 5xxs as the normal case. Worker
// death needs no cleanup protocol at all: the coordinator's lease expiry is
// the cleanup.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"dve/internal/dve"
	"dve/internal/experiments"
	"dve/internal/obslog"
	"dve/internal/results"
	"dve/internal/topology"
	"dve/internal/workload"
)

// Doer is the HTTP seam: http.Client in production, the chaos transport in
// tests (which drops, delays, duplicates and corrupts at this boundary).
type Doer interface {
	Do(req *http.Request) (*http.Response, error)
}

// WorkerConfig wires a Worker to its coordinator.
type WorkerConfig struct {
	// Coordinator is the base URL (e.g. "http://host:8437").
	Coordinator string
	// ID names this worker in the coordinator's registry. Must be set.
	ID string
	// Runner simulates cells. Its Scale is overridden per cell by the
	// coordinator's grant, so the fleet always simulates what the
	// coordinator keyed. Cache may be nil: results travel in the complete
	// RPC; the coordinator's cache is authoritative.
	Runner experiments.Runner
	// PollEvery is the idle delay between lease polls when the queue is
	// empty. 0 means 250ms.
	PollEvery time.Duration
	// RPCTimeout bounds each individual fabric request. 0 means 10s.
	RPCTimeout time.Duration
	// RPCRetries is how many times a failed RPC is re-sent (beyond the
	// first attempt). 0 means 4.
	RPCRetries int
	// BackoffBase/BackoffMax shape the full-jitter exponential backoff
	// between RPC retries. 0 means 50ms / 2s.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Seed seeds the jitter PRNG (the fabric never touches the global rand
	// source). 0 derives one from ID.
	Seed uint64
	// Client is the HTTP seam; nil means a plain http.Client.
	Client Doer
	// Exec runs one cell; nil means the Runner at the granted scale. Tests
	// swap it to control timing and results without simulating.
	Exec func(spec workload.Spec, cfg topology.Config, classify bool, warmup, measure uint64) (*dve.Result, error)
	// Sleep replaces the backoff/poll sleep in tests; nil sleeps on a
	// timer honoring context cancellation.
	Sleep func(d time.Duration)
	// Log receives structured lifecycle events (nil-safe). Events carry the
	// sweep/cell span IDs from the coordinator's grant, so a worker's log
	// joins the coordinator's trace on the same correlation keys.
	Log *obslog.Logger
}

// Worker executes one cell at a time against a coordinator. Run N workers
// (each with its own ID) for node-level parallelism.
type Worker struct {
	cfg      WorkerConfig
	leaseTTL time.Duration

	rngMu sync.Mutex
	rng   uint64

	// Stats counters, read via Stats().
	statsMu sync.Mutex
	stats   WorkerStats
}

// WorkerStats is a point-in-time snapshot of one worker's traffic.
type WorkerStats struct {
	Leases     uint64 `json:"leases"`
	Completed  uint64 `json:"completed"`
	Failed     uint64 `json:"failed"`
	Abandoned  uint64 `json:"abandoned"` // lease gone mid-run (coordinator re-owned the cell)
	RPCRetries uint64 `json:"rpc_retries"`
}

// NewWorker builds a worker from the config, applying defaults.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	if cfg.Coordinator == "" {
		return nil, fmt.Errorf("serve: WorkerConfig.Coordinator must be set")
	}
	if cfg.ID == "" {
		return nil, fmt.Errorf("serve: WorkerConfig.ID must be set")
	}
	if cfg.PollEvery <= 0 {
		cfg.PollEvery = 250 * time.Millisecond
	}
	if cfg.RPCTimeout <= 0 {
		cfg.RPCTimeout = 10 * time.Second
	}
	if cfg.RPCRetries <= 0 {
		cfg.RPCRetries = 4
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = 50 * time.Millisecond
	}
	if cfg.BackoffMax <= 0 {
		cfg.BackoffMax = 2 * time.Second
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{}
	}
	seed := cfg.Seed
	if seed == 0 {
		for _, c := range []byte(cfg.ID) {
			seed = seed*1099511628211 + uint64(c) // FNV-ish fold of the ID
		}
		seed |= 1
	}
	w := &Worker{cfg: cfg, rng: seed, leaseTTL: 30 * time.Second}
	if w.cfg.Exec == nil {
		w.cfg.Exec = w.runnerExec
	}
	return w, nil
}

func (w *Worker) runnerExec(spec workload.Spec, cfg topology.Config, classify bool, warmup, measure uint64) (*dve.Result, error) {
	r := w.cfg.Runner
	r.Scale = experiments.Scale{WarmupOps: warmup, MeasureOps: measure}
	res, _, err := r.RunCell(spec, cfg, classify)
	return res, err
}

// ID returns the worker's fabric name.
func (w *Worker) ID() string { return w.cfg.ID }

// Stats snapshots the worker's counters.
func (w *Worker) Stats() WorkerStats {
	w.statsMu.Lock()
	defer w.statsMu.Unlock()
	return w.stats
}

func (w *Worker) bump(f func(*WorkerStats)) {
	w.statsMu.Lock()
	f(&w.stats)
	w.statsMu.Unlock()
}

// splitmix64 is the jitter PRNG step (deterministic, goroutine-safe via
// rngMu, and independent of the banned global rand source).
func (w *Worker) rand01() float64 {
	w.rngMu.Lock()
	w.rng += 0x9e3779b97f4a7c15
	z := w.rng
	w.rngMu.Unlock()
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11) / float64(1<<53)
}

// backoff returns the full-jitter delay for the given retry attempt
// (0-based): uniform in [0, min(max, base·2^attempt)]. Full jitter
// decorrelates a fleet that failed together so it does not retry together.
func (w *Worker) backoff(attempt int) time.Duration {
	cap := w.cfg.BackoffBase << uint(attempt)
	if cap > w.cfg.BackoffMax || cap <= 0 {
		cap = w.cfg.BackoffMax
	}
	return time.Duration(w.rand01() * float64(cap))
}

// sleep pauses for d or until ctx is done, whichever comes first.
func (w *Worker) sleep(ctx context.Context, d time.Duration) {
	if w.cfg.Sleep != nil {
		w.cfg.Sleep(d)
		return
	}
	if d <= 0 {
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}

// retryable reports whether an RPC status is worth re-sending: server-side
// trouble, backpressure, or the checksum-mismatch 409 a corrupted-in-flight
// payload earns (the retry re-sends fresh bytes).
func retryable(code int) bool {
	return code >= 500 || code == http.StatusConflict || code == http.StatusTooManyRequests
}

// rpc posts one fabric message with per-attempt timeouts and full-jitter
// backoff between attempts. out (when non-nil) receives the decoded 200
// body. The returned status is the last attempt's; err is non-nil only when
// every attempt failed at the transport layer.
func (w *Worker) rpc(ctx context.Context, path string, in any, out any) (int, error) {
	body, err := json.Marshal(in)
	if err != nil {
		return 0, fmt.Errorf("serve: encoding %s: %w", path, err)
	}
	var lastErr error
	for attempt := 0; attempt <= w.cfg.RPCRetries; attempt++ {
		if attempt > 0 {
			w.bump(func(s *WorkerStats) { s.RPCRetries++ })
			w.sleep(ctx, w.backoff(attempt-1))
		}
		if ctx.Err() != nil {
			return 0, ctx.Err()
		}
		rctx, cancel := context.WithTimeout(ctx, w.cfg.RPCTimeout)
		req, err := http.NewRequestWithContext(rctx, http.MethodPost,
			w.cfg.Coordinator+path, bytes.NewReader(body))
		if err != nil {
			cancel()
			return 0, err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := w.cfg.Client.Do(req)
		if err != nil {
			cancel()
			lastErr = err
			continue
		}
		code := resp.StatusCode
		if retryable(code) {
			resp.Body.Close()
			cancel()
			lastErr = fmt.Errorf("%s: status %d", path, code)
			continue
		}
		if out != nil && code == http.StatusOK {
			err = json.NewDecoder(resp.Body).Decode(out)
		}
		resp.Body.Close()
		cancel()
		if err != nil {
			// A 200 whose body would not decode is transport corruption
			// too: retry.
			lastErr = fmt.Errorf("%s: decoding response: %w", path, err)
			continue
		}
		return code, nil
	}
	return 0, fmt.Errorf("serve: %s failed after %d attempts: %w",
		path, w.cfg.RPCRetries+1, lastErr)
}

// Run registers and then pulls, executes and reports cells until ctx is
// cancelled. It only returns on cancellation: a coordinator that is down or
// draining is retried forever at the idle poll cadence, so a worker can
// outlive coordinator restarts.
func (w *Worker) Run(ctx context.Context) error {
	registered := false
	for ctx.Err() == nil {
		if !registered {
			var reg registerResponse
			code, err := w.rpc(ctx, pathRegister, registerRequest{Worker: w.cfg.ID}, &reg)
			if err != nil || code != http.StatusOK {
				w.sleep(ctx, w.cfg.PollEvery)
				continue
			}
			if reg.LeaseTTLMillis > 0 {
				w.leaseTTL = time.Duration(reg.LeaseTTLMillis) * time.Millisecond
			}
			registered = true
		}
		var grant leaseGrant
		code, err := w.rpc(ctx, pathLease, leaseRequest{Worker: w.cfg.ID}, &grant)
		switch {
		case err != nil:
			// Coordinator unreachable: drop to re-register (it may have
			// restarted and lost the registry) and poll on.
			registered = false
			w.sleep(ctx, w.cfg.PollEvery)
		case code == http.StatusNoContent:
			w.sleep(ctx, w.cfg.PollEvery)
		case code == http.StatusOK:
			w.bump(func(s *WorkerStats) { s.Leases++ })
			w.execute(ctx, grant)
		default:
			w.sleep(ctx, w.cfg.PollEvery)
		}
	}
	return ctx.Err()
}

// logGrant emits one worker-side lifecycle event carrying the grant's
// correlation IDs.
func (w *Worker) logGrant(lv obslog.Level, event string, grant leaseGrant, detail string) {
	if !w.cfg.Log.On(lv) {
		return
	}
	w.cfg.Log.Emit(lv, "worker", event, obslog.Event{
		Sweep:  sweepStr(grant.Sweep),
		Cell:   cellStr(grant.Sweep, grant.Cell),
		Lease:  grant.Lease,
		Worker: w.cfg.ID,
		Key:    grant.Key,
		Detail: detail,
	})
}

// execute runs one granted cell: key cross-check, heartbeats while the
// simulation runs, then complete (or fail) with the payload.
func (w *Worker) execute(ctx context.Context, grant leaseGrant) {
	w.logGrant(obslog.Info, "cell_start", grant, "")
	// Recompute the content key locally: a worker whose binary disagrees
	// with the coordinator about what these inputs mean must refuse the
	// cell rather than cache a result under the wrong address.
	key, err := results.CellKey{
		Workload:   grant.Workload,
		Config:     grant.Config,
		WarmupOps:  grant.WarmupOps,
		MeasureOps: grant.MeasureOps,
		Classify:   grant.Classify,
		Seed:       grant.Workload.Seed,
	}.Hash()
	if err == nil && string(key) != grant.Key {
		err = fmt.Errorf("cell key mismatch: coordinator %s, worker %s (version skew?)", grant.Key, key)
	}
	if err != nil {
		w.bump(func(s *WorkerStats) { s.Failed++ })
		w.logGrant(obslog.Error, "cell_refused", grant, err.Error())
		w.rpc(ctx, pathFail, failRequest{Worker: w.cfg.ID, Lease: grant.Lease, Error: err.Error()}, nil)
		return
	}

	// Heartbeat at a third of the TTL until the simulation finishes. A 410
	// means the lease is gone — the cell was re-owned; we finish anyway and
	// still report (the coordinator deduplicates and a late deterministic
	// result is as good as any).
	done := make(chan struct{})
	var abandoned bool
	var hbWG sync.WaitGroup
	hbWG.Add(1)
	go func() {
		defer hbWG.Done()
		for {
			t := time.NewTimer(leaseDeadlineHint(w.leaseTTL))
			select {
			case <-done:
				t.Stop()
				return
			case <-ctx.Done():
				t.Stop()
				return
			case <-t.C:
			}
			code, err := w.rpc(ctx, pathRenew,
				renewRequest{Worker: w.cfg.ID, Lease: grant.Lease}, nil)
			if err == nil && code == http.StatusGone {
				abandoned = true
				return
			}
		}
	}()

	res, execErr := w.cfg.Exec(grant.Workload, grant.Config, grant.Classify,
		grant.WarmupOps, grant.MeasureOps)
	close(done)
	hbWG.Wait()
	if ctx.Err() != nil {
		return // killed mid-cell: the lease expiry is the cleanup
	}
	if abandoned {
		w.bump(func(s *WorkerStats) { s.Abandoned++ })
		w.logGrant(obslog.Warn, "lease_abandoned", grant,
			"lease re-owned mid-run; reporting the late result anyway")
	}
	if execErr != nil {
		w.bump(func(s *WorkerStats) { s.Failed++ })
		w.logGrant(obslog.Error, "cell_failed", grant, execErr.Error())
		w.rpc(ctx, pathFail,
			failRequest{Worker: w.cfg.ID, Lease: grant.Lease, Error: execErr.Error()}, nil)
		return
	}
	payload, err := json.Marshal(res)
	var code int
	if err == nil {
		var sum string
		sum, err = results.PayloadSum(payload)
		if err == nil {
			code, err = w.rpc(ctx, pathComplete, completeRequest{
				Worker:  w.cfg.ID,
				Lease:   grant.Lease,
				Key:     grant.Key,
				Payload: payload,
				Sum:     sum,
			}, nil)
		}
	}
	if err != nil || code != http.StatusOK {
		// The result never landed (unreachable coordinator, or a terminal
		// rejection such as an unparseably-corrupted upload). Report the
		// attempt as failed so the cell is re-leased promptly; if even that
		// is lost, lease expiry re-enqueues it anyway.
		w.bump(func(s *WorkerStats) { s.Failed++ })
		w.logGrant(obslog.Error, "complete_lost", grant,
			fmt.Sprintf("complete did not land (status %d, err %v)", code, err))
		w.rpc(ctx, pathFail, failRequest{Worker: w.cfg.ID, Lease: grant.Lease,
			Error: fmt.Sprintf("complete did not land (status %d, err %v)", code, err)}, nil)
		return
	}
	w.bump(func(s *WorkerStats) { s.Completed++ })
	w.logGrant(obslog.Info, "cell_done", grant, "")
}
