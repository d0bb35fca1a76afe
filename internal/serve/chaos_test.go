package serve

// The chaos harness: run a full workload×protocol matrix through a
// coordinator + 3 fabric workers while every fault the design claims to
// tolerate is injected at once —
//
//   - a worker is killed mid-cell (silent death: no fail RPC, heartbeats
//     just stop), so its lease must expire and the cell must be re-leased;
//   - every coordinator↔worker message may be dropped, delayed, duplicated,
//     or bit-flipped in flight (the chaos transport sits at the Doer seam);
//   - landed cache entries are bit-flipped on disk mid-flight, so completed
//     cells must be detected as corrupt and healed by resubmission.
//
// The assertion is the strongest one the service makes: after the dust
// settles, every cell's /result payload is byte-identical to a fault-free
// solo run of the same matrix, and the fault ledger (lease expirations,
// re-enqueues, degraded transitions) is visible in /metrics/prom.
//
// Opt-in: go test ./internal/serve -chaos [-race]. Skipped otherwise — the
// harness trades a few wall-clock seconds for fault coverage, which is CI's
// budget, not the inner loop's.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"dve/internal/dve"
	"dve/internal/obslog"
	"dve/internal/results"
	"dve/internal/telemetry"
	"dve/internal/topology"
	"dve/internal/workload"
)

var chaosFlag = flag.Bool("chaos", false, "run the chaos fault-injection harness")

// chaosRand is a tiny seeded splitmix64 stream: the harness must be
// repeatable, so it never touches the global rand source.
type chaosRand struct {
	mu sync.Mutex
	z  uint64
}

func (r *chaosRand) next() uint64 {
	r.mu.Lock()
	r.z += 0x9e3779b97f4a7c15
	z := r.z
	r.mu.Unlock()
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *chaosRand) float() float64 { return float64(r.next()>>11) / float64(1<<53) }

// chaosTransport wraps a Doer with message-level faults: drop before send,
// drop after send (the response is lost but the coordinator acted), delay,
// duplicate, and request-body bit flips.
type chaosTransport struct {
	base Doer
	rng  *chaosRand

	dropBefore float64
	dropAfter  float64
	dup        float64
	corrupt    float64
	delayMax   time.Duration

	drops, dups, corrupts uint64 // via rng.mu? no: own mutex
	mu                    sync.Mutex
}

func (c *chaosTransport) count(f func(*chaosTransport)) {
	c.mu.Lock()
	f(c)
	c.mu.Unlock()
}

var errChaosDrop = fmt.Errorf("chaos: message dropped")

func (c *chaosTransport) Do(req *http.Request) (*http.Response, error) {
	body, err := io.ReadAll(req.Body)
	req.Body.Close()
	if err != nil {
		return nil, err
	}
	if d := time.Duration(c.rng.float() * float64(c.delayMax)); d > 0 {
		time.Sleep(d)
	}
	if c.rng.float() < c.dropBefore {
		c.count(func(t *chaosTransport) { t.drops++ })
		return nil, errChaosDrop
	}
	send := body
	if len(body) > 2 && c.rng.float() < c.corrupt {
		c.count(func(t *chaosTransport) { t.corrupts++ })
		send = append([]byte(nil), body...)
		send[1+int(c.rng.next()%uint64(len(send)-2))] ^= 0x40
	}
	if c.rng.float() < c.dup {
		// Deliver the message twice; the first response is discarded, as if
		// lost. Exercises at-least-once semantics on every endpoint.
		c.count(func(t *chaosTransport) { t.dups++ })
		first := req.Clone(req.Context())
		first.Body = io.NopCloser(bytes.NewReader(send))
		if resp, err := c.base.Do(first); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}
	req2 := req.Clone(req.Context())
	req2.Body = io.NopCloser(bytes.NewReader(send))
	resp, err := c.base.Do(req2)
	if err != nil {
		return nil, err
	}
	if c.rng.float() < c.dropAfter {
		// The coordinator processed the message; the worker never hears.
		c.count(func(t *chaosTransport) { t.drops++ })
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return nil, errChaosDrop
	}
	return resp, nil
}

// chaosResult fabricates a deterministic, cell-specific result: the same
// bytes from the solo reference pass, the local degraded pool, and every
// fabric worker, so byte-identity is a meaningful assertion.
func chaosResult(spec workload.Spec, cfg topology.Config) *dve.Result {
	h := uint64(1469598103934665603)
	for _, b := range []byte(spec.Name + "/" + cfg.Protocol.String()) {
		h = (h ^ uint64(b)) * 1099511628211
	}
	return &dve.Result{Workload: spec.Name, Protocol: cfg.Protocol, Cycles: h%1000000 + 1}
}

const chaosMatrix = `{"workloads":["fft","lbm","canneal"],"protocols":["baseline","deny","dynamic"]}`

// pollChaos polls /metrics until ok or ~15s pass.
func pollChaos(t *testing.T, url, what string, ok func(Metrics) bool) Metrics {
	t.Helper()
	var m Metrics
	for i := 0; i < 3000; i++ {
		m = getMetrics(t, url)
		if ok(m) {
			return m
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("chaos: %s never happened; metrics %+v", what, m)
	return m
}

func getMetrics(t *testing.T, url string) Metrics {
	t.Helper()
	r, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	var m Metrics
	if err := json.NewDecoder(r.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestChaosFabric(t *testing.T) {
	if !*chaosFlag {
		t.Skip("chaos harness is opt-in: go test ./internal/serve -chaos")
	}

	// ---- Reference pass: the same matrix, fault-free, solo. -------------
	reference := make(map[string][]byte) // key -> /result bytes
	{
		s := newTestServer(t, 4, 64, func(spec workload.Spec, cfg topology.Config, classify bool) (*dve.Result, bool, error) {
			return chaosResult(spec, cfg), false, nil
		})
		s.Start()
		ts := httptest.NewServer(s.Handler())
		resp, rr := postRun(t, ts.URL, chaosMatrix)
		if resp.StatusCode != http.StatusOK || len(rr.Cells) != 9 {
			t.Fatalf("reference POST /run = %d with %d cells", resp.StatusCode, len(rr.Cells))
		}
		waitForMetrics(t, ts.URL, func(m Metrics) bool { return m.Completed == 9 })
		for _, c := range rr.Cells {
			r, err := http.Get(ts.URL + "/result/" + c.Key)
			if err != nil {
				t.Fatal(err)
			}
			b, _ := readAll(r)
			if r.StatusCode != http.StatusOK {
				t.Fatalf("reference result %s = %d", c.Key, r.StatusCode)
			}
			reference[c.Key] = b
		}
		s.Drain()
		ts.Close()
	}

	// ---- Chaos pass: same matrix, every fault at once. ------------------
	// The coordinator records a debug log; at the end it must rebuild the
	// live views.
	s := newCoordinator(t, 100*time.Millisecond, 300*time.Millisecond,
		func(spec workload.Spec, cfg topology.Config, classify bool) (*dve.Result, bool, error) {
			return chaosResult(spec, cfg), false, nil
		})
	var logBuf bytes.Buffer
	s.st.log = obslog.New(obslog.Options{Min: obslog.Debug, Ring: -1, Sink: obslog.NewJSONSink(&logBuf)})
	s.Start()
	defer s.Drain()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	chaosExec := func(spec workload.Spec, cfg topology.Config, classify bool, warmup, measure uint64) (*dve.Result, error) {
		return chaosResult(spec, cfg), nil
	}
	newChaosWorker := func(id string, seed uint64,
		exec func(workload.Spec, topology.Config, bool, uint64, uint64) (*dve.Result, error)) (*Worker, *chaosTransport) {
		tr := &chaosTransport{
			base:       &http.Client{},
			rng:        &chaosRand{z: seed},
			dropBefore: 0.08,
			dropAfter:  0.05,
			dup:        0.10,
			corrupt:    0.12,
			delayMax:   4 * time.Millisecond,
		}
		w, err := NewWorker(WorkerConfig{
			Coordinator: ts.URL,
			ID:          id,
			PollEvery:   2 * time.Millisecond,
			RPCTimeout:  2 * time.Second,
			RPCRetries:  6,
			BackoffBase: time.Millisecond,
			BackoffMax:  20 * time.Millisecond,
			Seed:        seed,
			Client:      tr,
			Exec:        exec,
		})
		if err != nil {
			t.Fatal(err)
		}
		return w, tr
	}

	// The doomed worker blocks inside its first cell until it is killed.
	stuck := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	doomedCtx, kill := context.WithCancel(context.Background())
	defer kill()
	doomed, _ := newChaosWorker("doomed", 0xD00D,
		func(spec workload.Spec, cfg topology.Config, classify bool, warmup, measure uint64) (*dve.Result, error) {
			once.Do(func() { close(stuck) })
			<-release
			return nil, context.Canceled
		})
	var running sync.WaitGroup // worker loops, joined before the replay check
	running.Add(1)
	go func() { defer running.Done(); doomed.Run(doomedCtx) }()
	pollChaos(t, ts.URL, "doomed worker registration", func(m Metrics) bool { return !m.Degraded })

	resp, rr := postRun(t, ts.URL, chaosMatrix)
	if resp.StatusCode != http.StatusOK || len(rr.Cells) != 9 {
		t.Fatalf("chaos POST /run = %d with %d cells", resp.StatusCode, len(rr.Cells))
	}

	// A live SSE watcher rides the chaos sweep from start to finish: whatever
	// faults hit the fabric, the stream must end with one terminal "done"
	// frame whose aggregate matches the sweep. Drained continuously, so a
	// resync frame (slow-consumer drop) is tolerated but not expected.
	watchDone := make(chan watchSnapshot, 1)
	watchErr := make(chan error, 1)
	go func() {
		r, err := http.Get(fmt.Sprintf("%s/watch/%d", ts.URL, rr.Sweep))
		if err != nil {
			watchErr <- err
			return
		}
		defer r.Body.Close()
		br := bufio.NewReader(r.Body)
		for {
			ev, err := readSSE(t, br)
			if err != nil {
				watchErr <- fmt.Errorf("chaos SSE stream broke: %w", err)
				return
			}
			switch ev.name {
			case "snapshot", "cell", "resync":
				// progress frames; keep draining
			case "done":
				var snap watchSnapshot
				if err := json.Unmarshal(ev.data, &snap); err != nil {
					watchErr <- err
					return
				}
				watchDone <- snap
				return
			default:
				watchErr <- fmt.Errorf("chaos SSE: unexpected event %q", ev.name)
				return
			}
		}
	}()

	<-stuck // the doomed worker holds a lease on some cell

	// Two healthy-but-faulty workers join; then the doomed one dies
	// mid-cell without a goodbye.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var trs []*chaosTransport
	for i, id := range []string{"w1", "w2"} {
		w, tr := newChaosWorker(id, uint64(0xC0FFEE+i), chaosExec)
		trs = append(trs, tr)
		running.Add(1)
		go func() { defer running.Done(); w.Run(ctx) }()
	}
	kill()
	close(release)

	// Everything completes despite the chaos; the doomed worker's lease
	// must have expired and been re-enqueued along the way.
	m := pollChaos(t, ts.URL, "matrix completion", func(m Metrics) bool {
		return m.Completed >= 9 && m.Poisoned == 0
	})
	if m.LeaseExpired < 1 || m.Requeued < 1 {
		t.Fatalf("chaos metrics %+v: want at least one lease expiry and requeue", m)
	}
	if m.DegradedTransitions < 1 {
		t.Fatalf("chaos metrics %+v: want at least one degraded transition", m)
	}

	// The watcher that joined before the faults sees the sweep through to a
	// terminal done frame, and its aggregate agrees with the sweep size.
	select {
	case snap := <-watchDone:
		if !snap.Done || snap.Sweep != rr.Sweep {
			t.Fatalf("chaos SSE done frame %+v: not terminal for sweep %d", snap, rr.Sweep)
		}
		if snap.Agg.Total != 9 || snap.Agg.Done != 9 || snap.Agg.Failed != 0 {
			t.Fatalf("chaos SSE final aggregate %+v, want 9/9 done", snap.Agg)
		}
	case err := <-watchErr:
		t.Fatalf("chaos SSE watcher: %v", err)
	case <-time.After(15 * time.Second):
		t.Fatal("chaos SSE watcher never saw the done frame")
	}

	// The lifecycle trace captured during the chaos pass is a valid
	// wall-domain Chrome trace: spans nest, B/E pair per track, and every
	// cell's span is attributed to a real worker track (tid != 0 is the
	// coordinator's own pool). Scraped before the recovery storm below so
	// the ring has not evicted the matrix's spans.
	{
		r, err := http.Get(ts.URL + "/trace")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := readAll(r)
		if r.StatusCode != http.StatusOK {
			t.Fatalf("GET /trace = %d", r.StatusCode)
		}
		evs, err := telemetry.ParseTrace(bytes.NewReader(body))
		if err != nil {
			t.Fatalf("chaos trace does not parse: %v", err)
		}
		if err := telemetry.ValidateTrace(evs); err != nil {
			t.Errorf("chaos trace invalid: %v", err)
		}
		if err := telemetry.ValidateTraceDomain(evs, telemetry.DomainWall); err != nil {
			t.Errorf("chaos trace domain: %v", err)
		}
		spans := make(map[string]bool)
		for _, ev := range evs {
			if ev.Ph == "B" && strings.HasPrefix(ev.Name, "cell ") {
				spans[ev.Name] = true
			}
		}
		if len(spans) < 9 {
			t.Errorf("chaos trace has %d distinct cell spans, want >= 9", len(spans))
		}
	}

	// ---- Disk chaos: bit-flip landed cache entries mid-flight. ----------
	flipped := 0
	for _, c := range rr.Cells[:3] {
		path := s.cache.Path(results.Key(c.Key))
		b, err := os.ReadFile(path)
		if err != nil || len(b) < 16 {
			continue
		}
		b[len(b)/2] ^= 0x01
		if err := os.WriteFile(path, b, 0o644); err == nil {
			flipped++
		}
	}
	if flipped == 0 {
		t.Fatal("chaos: no cache entries could be bit-flipped")
	}

	// ---- Recovery: resubmission heals corrupt-done cells; every /result
	// must converge to the reference bytes. --------------------------------
	remaining := make(map[string]bool, len(reference))
	for k := range reference {
		remaining[k] = true
	}
	for iter := 0; len(remaining) > 0; iter++ {
		if iter >= 2000 {
			t.Fatalf("chaos: %d cells never converged: %v", len(remaining), remaining)
		}
		// Resubmit the matrix: idempotent for live cells, the recovery path
		// for corrupted-done ones.
		if r, err := http.Post(ts.URL+"/run", "application/json", strings.NewReader(chaosMatrix)); err == nil {
			io.Copy(io.Discard, r.Body)
			r.Body.Close()
		}
		for key := range remaining {
			r, err := http.Get(ts.URL + "/result/" + key)
			if err != nil {
				t.Fatal(err)
			}
			b, _ := readAll(r)
			if r.StatusCode != http.StatusOK {
				continue
			}
			if !bytes.Equal(b, reference[key]) {
				t.Fatalf("chaos: /result/%s differs from the fault-free reference:\n%s\n---\n%s",
					key, b, reference[key])
			}
			delete(remaining, key)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// ---- The fault ledger is scrapeable. --------------------------------
	r, err := http.Get(ts.URL + "/metrics/prom")
	if err != nil {
		t.Fatal(err)
	}
	promText, _ := readAll(r)
	if err := telemetry.ValidateExposition(bytes.NewReader(promText)); err != nil {
		t.Errorf("chaos: /metrics/prom is not a valid exposition: %v", err)
	}
	for _, counter := range []string{
		"dveserve_lease_expired_total",
		"dveserve_requeued_total",
		"dveserve_degraded_transitions_total",
	} {
		v, ok := promValue(string(promText), counter)
		if !ok || v < 1 {
			t.Errorf("chaos: %s = %v (found %v) in /metrics/prom, want >= 1\n%s",
				counter, v, ok, promText)
		}
	}

	var dropped, duplicated, corrupted uint64
	for _, tr := range trs {
		tr.mu.Lock()
		dropped += tr.drops
		duplicated += tr.dups
		corrupted += tr.corrupts
		tr.mu.Unlock()
	}
	t.Logf("chaos summary: %d drops, %d duplicates, %d corrupted messages, %d cache flips; metrics %+v",
		dropped, duplicated, corrupted, flipped, getMetrics(t, ts.URL))
	if dropped == 0 && duplicated == 0 && corrupted == 0 {
		t.Error("chaos transport injected no faults: probabilities or traffic volume too low to mean anything")
	}

	// ---- Replay: the debug log alone rebuilds the trace, every sweep's
	// /watch terminal state and the ledger. Quiesce first: stop the
	// workers, let in-flight requests finish, drain.
	cancel()
	running.Wait()
	ts.Close()
	s.Drain()
	checkReplay(t, s, logBuf.Bytes())
}

// promValue extracts the value of a metric line from the text exposition.
func promValue(text, name string) (float64, bool) {
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, name+" ") {
			v, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimPrefix(line, name+" ")), 64)
			return v, err == nil
		}
	}
	return 0, false
}
