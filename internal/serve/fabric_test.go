package serve

// Integration tests for the coordinator/worker fabric over httptest: remote
// execution end-to-end, degraded-mode fallback, worker-death recovery via
// lease expiry, drain ordering (/readyz before intake), and the fabric
// protocol's rejection paths.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"dve/internal/dve"
	"dve/internal/experiments"
	"dve/internal/results"
	"dve/internal/topology"
	"dve/internal/workload"
)

// newCoordinator builds a coordinator-role server with a fast lease clock,
// runCell swapped for the local (degraded-mode) pool.
func newCoordinator(t *testing.T, leaseTTL, workerTTL time.Duration,
	run func(spec workload.Spec, cfg topology.Config, classify bool) (*dve.Result, bool, error)) *Server {
	t.Helper()
	store, err := results.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{
		Runner:      experiments.Runner{Scale: experiments.Quick, Cache: store},
		Workers:     2,
		QueueDepth:  32,
		Role:        RoleCoordinator,
		LeaseTTL:    leaseTTL,
		WorkerTTL:   workerTTL,
		MaxAttempts: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if run != nil {
		s.runCell = run
	}
	return s
}

// newFabricWorker builds a Worker against url whose Exec fabricates results
// without simulating.
func newFabricWorker(t *testing.T, url, id string,
	exec func(spec workload.Spec, cfg topology.Config, classify bool, warmup, measure uint64) (*dve.Result, error)) *Worker {
	t.Helper()
	w, err := NewWorker(WorkerConfig{
		Coordinator: url,
		ID:          id,
		PollEvery:   2 * time.Millisecond,
		RPCTimeout:  2 * time.Second,
		BackoffBase: time.Millisecond,
		BackoffMax:  10 * time.Millisecond,
		Exec:        exec,
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func fakeExec(spec workload.Spec, cfg topology.Config, classify bool, warmup, measure uint64) (*dve.Result, error) {
	return fakeResult(spec, cfg), nil
}

func TestRemoteExecutionEndToEnd(t *testing.T) {
	localRuns := 0
	s := newCoordinator(t, 200*time.Millisecond, time.Minute,
		func(spec workload.Spec, cfg topology.Config, classify bool) (*dve.Result, bool, error) {
			localRuns++ // the local pool must stay parked while a worker is healthy
			return fakeResult(spec, cfg), false, nil
		})
	s.Start()
	defer s.Drain()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := newFabricWorker(t, ts.URL, "w1", fakeExec)
	go w.Run(ctx)

	// The worker's registration lifts degraded mode (one transition).
	m := waitForMetrics(t, ts.URL, func(m Metrics) bool { return !m.Degraded })
	if m.WorkersHealthy != 1 || m.DegradedTransitions != 1 {
		t.Fatalf("post-register metrics: %+v", m)
	}

	_, rr := postRun(t, ts.URL, `{"workloads":["fft","lbm"],"protocols":["baseline","deny"]}`)
	m = waitForMetrics(t, ts.URL, func(m Metrics) bool { return m.Completed == 4 })
	if m.RemoteCompleted != 4 {
		t.Fatalf("remote_completed = %d, want 4 (metrics %+v)", m.RemoteCompleted, m)
	}
	if localRuns != 0 {
		t.Fatalf("local pool ran %d cells with a healthy worker registered", localRuns)
	}

	// The payload a client reads is byte-identical to what a local cached
	// run would have stored: the worker's marshal landed verbatim.
	for _, c := range rr.Cells {
		r, err := http.Get(ts.URL + "/result/" + c.Key)
		if err != nil {
			t.Fatal(err)
		}
		got, _ := readAll(r)
		if r.StatusCode != http.StatusOK {
			t.Fatalf("GET /result/%s = %d: %s", c.Key, r.StatusCode, got)
		}
		want, ok := s.cache.GetRaw(results.Key(c.Key))
		if !ok || !bytes.Equal(got, want) {
			t.Fatalf("served bytes differ from cache for %s/%s", c.Workload, c.Protocol)
		}
	}
	if st := w.Stats(); st.Completed != 4 || st.Leases != 4 {
		t.Fatalf("worker stats %+v, want 4 leases / 4 completed", st)
	}
}

func TestDegradedFallbackRunsLocally(t *testing.T) {
	var mu sync.Mutex
	localRuns := 0
	s := newCoordinator(t, 100*time.Millisecond, time.Minute,
		func(spec workload.Spec, cfg topology.Config, classify bool) (*dve.Result, bool, error) {
			mu.Lock()
			localRuns++
			mu.Unlock()
			return fakeResult(spec, cfg), false, nil
		})
	s.Start()
	defer s.Drain()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// No workers ever register: the coordinator starts degraded and the
	// local pool must carry the matrix, exactly like a solo server.
	postRun(t, ts.URL, `{"workload":"fft","protocols":["baseline","deny"]}`)
	m := waitForMetrics(t, ts.URL, func(m Metrics) bool { return m.Completed == 2 })
	if !m.Degraded || m.WorkersHealthy != 0 {
		t.Fatalf("metrics %+v, want degraded with no workers", m)
	}
	mu.Lock()
	defer mu.Unlock()
	if localRuns != 2 {
		t.Fatalf("local pool ran %d cells, want 2", localRuns)
	}
}

// TestWorkerDeathRecovery is the core fault path: a worker leases a cell and
// dies silently mid-run. The lease expires and re-enqueues the cell; worker
// silence flips the coordinator back to degraded; the local pool finishes
// the matrix. No cell is lost.
func TestWorkerDeathRecovery(t *testing.T) {
	s := newCoordinator(t, 40*time.Millisecond, 120*time.Millisecond,
		func(spec workload.Spec, cfg topology.Config, classify bool) (*dve.Result, bool, error) {
			return fakeResult(spec, cfg), false, nil
		})
	s.Start()
	defer s.Drain()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// The doomed worker blocks inside every cell until the test releases it.
	stuck := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	ctx, kill := context.WithCancel(context.Background())
	defer kill()
	w := newFabricWorker(t, ts.URL, "doomed",
		func(spec workload.Spec, cfg topology.Config, classify bool, warmup, measure uint64) (*dve.Result, error) {
			once.Do(func() { close(stuck) })
			<-release
			return nil, context.Canceled
		})
	go w.Run(ctx)
	waitForMetrics(t, ts.URL, func(m Metrics) bool { return !m.Degraded })

	_, rr := postRun(t, ts.URL, `{"workload":"fft","protocols":["baseline","deny"]}`)
	<-stuck // the worker holds a lease and will never finish the cell
	kill()  // silent death: no fail RPC, heartbeats stop
	close(release)

	// Lease expiry re-enqueues the cell; worker silence re-degrades the
	// coordinator; the local pool completes everything.
	m := waitForMetrics(t, ts.URL, func(m Metrics) bool { return m.Completed == 2 })
	if m.LeaseExpired < 1 || m.Requeued < 1 {
		t.Fatalf("metrics %+v, want at least one expiry and requeue", m)
	}
	if !m.Degraded || m.DegradedTransitions < 2 {
		t.Fatalf("metrics %+v, want degraded again after worker silence", m)
	}
	for _, c := range rr.Cells {
		r, err := http.Get(ts.URL + "/result/" + c.Key)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Fatalf("cell %s/%s = %d after recovery, want 200", c.Workload, c.Protocol, r.StatusCode)
		}
	}
}

// TestReadyzFlipsBeforeIntakeCloses pins the drain ordering contract: during
// the grace window /readyz already answers 503 while /run still accepts, so
// a load balancer stops routing before clients ever see a 503.
func TestReadyzFlipsBeforeIntakeCloses(t *testing.T) {
	s := newTestServer(t, 1, 8, func(spec workload.Spec, cfg topology.Config, classify bool) (*dve.Result, bool, error) {
		return fakeResult(spec, cfg), false, nil
	})
	s.drainGrace = time.Millisecond
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if r, err := http.Get(ts.URL + "/readyz"); err != nil || r.StatusCode != http.StatusOK {
		t.Fatalf("pre-drain /readyz = %v %v, want 200", r.StatusCode, err)
	}
	if r, err := http.Get(ts.URL + "/healthz"); err != nil || r.StatusCode != http.StatusOK {
		t.Fatalf("/healthz = %v %v, want 200", r.StatusCode, err)
	}

	// Swap the drain-grace sleep for a probe that observes the window
	// between the readiness flip and intake closing.
	type probe struct {
		readyz int
		run    int
	}
	probed := make(chan probe, 1)
	s.sleep = func(time.Duration) {
		var p probe
		if r, err := http.Get(ts.URL + "/readyz"); err == nil {
			p.readyz = r.StatusCode
			r.Body.Close()
		}
		if r, err := http.Post(ts.URL+"/run", "application/json",
			strings.NewReader(`{"workload":"fft","protocol":"deny"}`)); err == nil {
			p.run = r.StatusCode
			r.Body.Close()
		}
		probed <- p
	}
	s.Drain()
	p := <-probed
	if p.readyz != http.StatusServiceUnavailable {
		t.Fatalf("mid-grace /readyz = %d, want 503", p.readyz)
	}
	if p.run != http.StatusOK {
		t.Fatalf("mid-grace POST /run = %d, want 200 (intake must close only after the grace window)", p.run)
	}

	// After Drain returns, intake is closed too.
	resp, _ := postRun(t, ts.URL, `{"workload":"lbm","protocol":"deny"}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain POST /run = %d, want 503", resp.StatusCode)
	}
}

// postFabric posts one raw fabric message and returns the status code.
func postFabric(t *testing.T, url, path string, v any) int {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	r, err := http.Post(url+path, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	return r.StatusCode
}

// TestFabricProtocolRejections drives the coordinator API directly: checksum
// mismatches earn a retryable 409 without killing the lease, renewing a dead
// lease earns 410, and completing an unknown cell earns 410.
func TestFabricProtocolRejections(t *testing.T) {
	s := newCoordinator(t, time.Minute, time.Minute, nil)
	// No Start: we hand-drive the fabric so the local pool cannot race us.
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if code := postFabric(t, ts.URL, pathRegister, registerRequest{Worker: "w1"}); code != http.StatusOK {
		t.Fatalf("register = %d", code)
	}
	postRun(t, ts.URL, `{"workload":"fft","protocol":"deny"}`)

	var grant leaseGrant
	{
		b, _ := json.Marshal(leaseRequest{Worker: "w1"})
		r, err := http.Post(ts.URL+pathLease, "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		if r.StatusCode != http.StatusOK {
			t.Fatalf("lease = %d", r.StatusCode)
		}
		if err := json.NewDecoder(r.Body).Decode(&grant); err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
	}

	payload, _ := json.Marshal(fakeResult(workload.Spec{Name: "fft"}, topology.Default(topology.ProtoDeny)))
	sum, _ := results.PayloadSum(payload)

	// Corrupted-in-flight upload: wrong checksum is a 409 and the lease
	// survives, so the retry with fresh bytes lands.
	code := postFabric(t, ts.URL, pathComplete, completeRequest{
		Worker: "w1", Lease: grant.Lease, Key: grant.Key, Payload: payload, Sum: "deadbeef"})
	if code != http.StatusConflict {
		t.Fatalf("bad-sum complete = %d, want 409", code)
	}
	if code := postFabric(t, ts.URL, pathRenew, renewRequest{Worker: "w1", Lease: grant.Lease}); code != http.StatusOK {
		t.Fatalf("renew after 409 = %d, want 200 (lease must survive a checksum reject)", code)
	}

	// Completing a cell the coordinator never accepted: 410.
	bogusKey := strings.Repeat("ab", 32)
	bogusPayload := payload
	bogusSum, _ := results.PayloadSum(bogusPayload)
	if code := postFabric(t, ts.URL, pathComplete, completeRequest{
		Worker: "w1", Lease: 9999, Key: bogusKey, Payload: bogusPayload, Sum: bogusSum}); code != http.StatusGone {
		t.Fatalf("unknown-cell complete = %d, want 410", code)
	}

	// The good upload completes the cell; a duplicate is acknowledged 200.
	for i := 0; i < 2; i++ {
		if code := postFabric(t, ts.URL, pathComplete, completeRequest{
			Worker: "w1", Lease: grant.Lease, Key: grant.Key, Payload: payload, Sum: sum}); code != http.StatusOK {
			t.Fatalf("complete #%d = %d, want 200", i+1, code)
		}
	}
	// Renewing the retired lease: 410 tells the worker to abandon.
	if code := postFabric(t, ts.URL, pathRenew, renewRequest{Worker: "w1", Lease: grant.Lease}); code != http.StatusGone {
		t.Fatalf("renew after complete = %d, want 410", code)
	}
	if m := s.snapshotMetrics(); m.RemoteCompleted != 1 || m.Completed != 1 {
		t.Fatalf("metrics after duplicate completes: %+v", m)
	}
}

// TestLateCompleteAfterExpiry: a slow-but-alive worker whose lease expired
// still gets its (deterministic, thus valid) result accepted, and the
// requeued incarnation is cancelled instead of re-run.
func TestLateCompleteAfterExpiry(t *testing.T) {
	s := newCoordinator(t, time.Minute, time.Minute, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	postFabric(t, ts.URL, pathRegister, registerRequest{Worker: "slow"})
	postRun(t, ts.URL, `{"workload":"fft","protocol":"deny"}`)
	var grant leaseGrant
	b, _ := json.Marshal(leaseRequest{Worker: "slow"})
	r, err := http.Post(ts.URL+pathLease, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	json.NewDecoder(r.Body).Decode(&grant)
	r.Body.Close()

	// Force the lease to expire (fail() plays the expiry's role
	// deterministically: the cell returns to pending, the lease dies).
	s.lq.fail(grant.Lease, "simulated expiry")
	if st := s.st.ledgerMetrics(); st.QueueLen != 1 {
		t.Fatalf("cell not requeued: %+v", st)
	}

	payload, _ := json.Marshal(fakeResult(workload.Spec{Name: "fft"}, topology.Default(topology.ProtoDeny)))
	sum, _ := results.PayloadSum(payload)
	if code := postFabric(t, ts.URL, pathComplete, completeRequest{
		Worker: "slow", Lease: grant.Lease, Key: grant.Key, Payload: payload, Sum: sum}); code != http.StatusOK {
		t.Fatalf("late complete = %d, want 200", code)
	}
	if st := s.st.ledgerMetrics(); st.QueueLen != 0 || st.Leased != 0 {
		t.Fatalf("late complete left the requeued incarnation: %+v", st)
	}
	r2, err := http.Get(ts.URL + "/result/" + grant.Key)
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusOK {
		t.Fatalf("result after late complete = %d, want 200", r2.StatusCode)
	}
}

// TestDrainUnderLoad races Drain() against fresh intake and in-flight
// lease renewals: every cell that was accepted must complete exactly once,
// and none may be double-run.
func TestDrainUnderLoad(t *testing.T) {
	var runsMu sync.Mutex
	runs := make(map[string]int)
	count := func(spec workload.Spec, cfg topology.Config) {
		runsMu.Lock()
		runs[spec.Name+"/"+cfg.Protocol.String()]++
		runsMu.Unlock()
	}
	s := newCoordinator(t, time.Minute, time.Minute,
		func(spec workload.Spec, cfg topology.Config, classify bool) (*dve.Result, bool, error) {
			count(spec, cfg)
			return fakeResult(spec, cfg), false, nil
		})
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := newFabricWorker(t, ts.URL, "w1",
		func(spec workload.Spec, cfg topology.Config, classify bool, warmup, measure uint64) (*dve.Result, error) {
			count(spec, cfg)
			return fakeResult(spec, cfg), nil
		})
	go w.Run(ctx)

	// Intake hammer: every workload×protocol cell, repeatedly, across
	// goroutines, while Drain lands somewhere in the middle.
	workloads := []string{"fft", "lbm", "canneal", "stencil"}
	protocols := []string{"baseline", "deny", "dynamic"}
	accepted := make(map[string]string) // cell -> key
	var accMu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				wl := workloads[(g+i)%len(workloads)]
				pr := protocols[(g*2+i)%len(protocols)]
				body := fmt.Sprintf(`{"workload":%q,"protocol":%q}`, wl, pr)
				resp, err := http.Post(ts.URL+"/run", "application/json", strings.NewReader(body))
				if err != nil {
					continue
				}
				var rr runResponse
				json.NewDecoder(resp.Body).Decode(&rr)
				resp.Body.Close()
				// 503 (draining) and 429 (saturated) are allowed answers;
				// a 200 is a promise the cell will complete.
				if resp.StatusCode == http.StatusOK && len(rr.Cells) == 1 {
					accMu.Lock()
					accepted[wl+"/"+pr] = rr.Cells[0].Key
					accMu.Unlock()
				}
			}
		}(g)
	}
	drained := make(chan struct{})
	go func() { s.Drain(); close(drained) }()
	wg.Wait()
	<-drained
	cancel()

	// Every accepted cell completed (no cell lost)...
	for cell, key := range accepted {
		r, err := http.Get(ts.URL + "/result/" + key)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Fatalf("accepted cell %s = %d after drain, want 200", cell, r.StatusCode)
		}
	}
	// ...and none ran twice (no double-run: idempotent submission plus
	// lease exclusivity).
	runsMu.Lock()
	defer runsMu.Unlock()
	for cell, n := range runs {
		if n != 1 {
			t.Fatalf("cell %s ran %d times, want exactly 1", cell, n)
		}
	}
}
