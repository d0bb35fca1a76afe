package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"dve/internal/dve"
	"dve/internal/experiments"
	"dve/internal/obslog"
	"dve/internal/results"
	"dve/internal/topology"
	"dve/internal/workload"
)

// newTestServer builds a server whose runCell is replaced by run (no real
// simulations), backed by a fresh cache in a temp dir.
func newTestServer(t *testing.T, workers, depth int,
	run func(spec workload.Spec, cfg topology.Config, classify bool) (*dve.Result, bool, error)) *Server {
	t.Helper()
	store, err := results.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{
		Runner:     experiments.Runner{Scale: experiments.Quick, Cache: store},
		Workers:    workers,
		QueueDepth: depth,
	})
	if err != nil {
		t.Fatal(err)
	}
	if run != nil {
		s.runCell = run
	}
	return s
}

// fakeResult is a minimal valid result for a cell.
func fakeResult(spec workload.Spec, cfg topology.Config) *dve.Result {
	return &dve.Result{Workload: spec.Name, Protocol: cfg.Protocol, Cycles: 12345}
}

func postRun(t *testing.T, url string, body string) (*http.Response, runResponse) {
	t.Helper()
	resp, err := http.Post(url+"/run", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var rr runResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		t.Fatalf("decoding /run response: %v", err)
	}
	resp.Body.Close()
	return resp, rr
}

func TestEnqueueRunAndFetchResult(t *testing.T) {
	s := newTestServer(t, 2, 8, func(spec workload.Spec, cfg topology.Config, classify bool) (*dve.Result, bool, error) {
		return fakeResult(spec, cfg), false, nil
	})
	s.Start()
	defer s.Drain()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, rr := postRun(t, ts.URL, `{"workloads":["fft","lbm"],"protocols":["baseline","deny"]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /run = %d, want 200", resp.StatusCode)
	}
	if len(rr.Cells) != 4 {
		t.Fatalf("%d cells, want 4", len(rr.Cells))
	}
	for _, c := range rr.Cells {
		if c.Status != "queued" {
			t.Fatalf("cell %s/%s status %q, want queued", c.Workload, c.Protocol, c.Status)
		}
		if len(c.Key) != 64 {
			t.Fatalf("cell key %q not a sha256 hex", c.Key)
		}
	}

	// Poll the first cell until done; the payload must be the cached result.
	var res dve.Result
	for i := 0; ; i++ {
		r, err := http.Get(ts.URL + "/result/" + rr.Cells[0].Key)
		if err != nil {
			t.Fatal(err)
		}
		if r.StatusCode == http.StatusOK {
			if err := json.NewDecoder(r.Body).Decode(&res); err != nil {
				t.Fatal(err)
			}
			r.Body.Close()
			break
		}
		r.Body.Close()
		if r.StatusCode != http.StatusAccepted {
			t.Fatalf("GET /result = %d, want 200 or 202", r.StatusCode)
		}
		if i > 10000 {
			t.Fatal("cell never completed")
		}
	}
	if res.Workload != "fft" || res.Cycles != 12345 {
		t.Fatalf("result payload %+v", res)
	}

	// Re-enqueueing the same matrix reports every cell served from cache.
	// (Completion of the first cell is confirmed; wait for the rest.)
	waitForMetrics(t, ts.URL, func(m Metrics) bool { return m.Completed == 4 })
	_, rr2 := postRun(t, ts.URL, `{"workloads":["fft","lbm"],"protocols":["baseline","deny"]}`)
	for _, c := range rr2.Cells {
		if c.Status != "cached" {
			t.Fatalf("repeat cell %s/%s status %q, want cached", c.Workload, c.Protocol, c.Status)
		}
	}
}

func waitForMetrics(t *testing.T, url string, ok func(Metrics) bool) Metrics {
	t.Helper()
	for i := 0; i < 100000; i++ {
		r, err := http.Get(url + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		var m Metrics
		if err := json.NewDecoder(r.Body).Decode(&m); err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if ok(m) {
			return m
		}
	}
	t.Fatal("metrics condition never met")
	return Metrics{}
}

func TestBackpressure429(t *testing.T) {
	block := make(chan struct{})
	s := newTestServer(t, 1, 1, func(spec workload.Spec, cfg topology.Config, classify bool) (*dve.Result, bool, error) {
		<-block
		return fakeResult(spec, cfg), false, nil
	})
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// One worker (blocked) + one queue slot: the third distinct cell must
	// be rejected with 429.
	resp1, _ := postRun(t, ts.URL, `{"workload":"fft","protocol":"baseline"}`)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("first cell = %d, want 200", resp1.StatusCode)
	}
	// Wait until the worker has picked up the first cell so the single
	// queue slot is free for exactly one more.
	waitForMetrics(t, ts.URL, func(m Metrics) bool { return m.QueueLen == 0 })
	resp2, _ := postRun(t, ts.URL, `{"workload":"fft","protocol":"deny"}`)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second cell = %d, want 200", resp2.StatusCode)
	}
	resp3, rr3 := postRun(t, ts.URL, `{"workload":"fft","protocol":"dynamic"}`)
	if resp3.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third cell = %d, want 429", resp3.StatusCode)
	}
	if !strings.Contains(rr3.Error, "saturated") {
		t.Fatalf("429 body %+v missing saturation message", rr3)
	}
	m := waitForMetrics(t, ts.URL, func(m Metrics) bool { return m.Rejected == 1 })
	if m.Enqueued != 2 {
		t.Fatalf("metrics %+v, want 2 enqueued", m)
	}

	// Re-requesting an already-queued cell is not a new enqueue and must
	// not be rejected.
	resp4, rr4 := postRun(t, ts.URL, `{"workload":"fft","protocol":"deny"}`)
	if resp4.StatusCode != http.StatusOK || rr4.Cells[0].Status != "queued" {
		t.Fatalf("repeat of queued cell = %d %+v, want 200/queued", resp4.StatusCode, rr4)
	}

	close(block)
	s.Drain()
}

func TestGracefulDrain(t *testing.T) {
	started := make(chan struct{}, 8)
	block := make(chan struct{})
	s := newTestServer(t, 1, 8, func(spec workload.Spec, cfg topology.Config, classify bool) (*dve.Result, bool, error) {
		started <- struct{}{}
		<-block
		return fakeResult(spec, cfg), false, nil
	})
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	postRun(t, ts.URL, `{"workloads":["fft","lbm"],"protocols":["deny"]}`)
	<-started // worker is busy on the first cell; the second sits queued

	drained := make(chan struct{})
	go func() { s.Drain(); close(drained) }()
	waitForMetrics(t, ts.URL, func(m Metrics) bool { return m.Draining })

	// While draining, intake answers 503.
	resp, rr := postRun(t, ts.URL, `{"workload":"canneal","protocol":"deny"}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("enqueue during drain = %d, want 503", resp.StatusCode)
	}
	if !strings.Contains(rr.Error, "draining") {
		t.Fatalf("503 body %+v missing drain message", rr)
	}

	select {
	case <-drained:
		t.Fatal("Drain returned while a cell was still queued")
	default:
	}
	close(block)
	<-drained

	// Every cell accepted before the drain completed.
	m := waitForMetrics(t, ts.URL, func(m Metrics) bool { return true })
	if m.Completed != 2 || !m.Draining {
		t.Fatalf("post-drain metrics %+v, want 2 completed and draining", m)
	}
}

func TestRunRejectsBadNames(t *testing.T) {
	s := newTestServer(t, 1, 4, nil)
	s.Start()
	defer s.Drain()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, body := range []string{
		`{"workload":"nosuch","protocol":"deny"}`,
		`{"workload":"fft","protocol":"nosuch"}`,
		`{}`,
		`not json`,
	} {
		resp, err := http.Post(ts.URL+"/run", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("POST %s = %d, want 400", body, resp.StatusCode)
		}
	}
	if resp, err := http.Get(ts.URL + "/result/zzzz"); err != nil || resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /result/zzzz = %v %v, want 404", resp.StatusCode, err)
	}
}

func TestFailedCellReports500(t *testing.T) {
	s := newTestServer(t, 1, 4, func(spec workload.Spec, cfg topology.Config, classify bool) (*dve.Result, bool, error) {
		return nil, false, errFake
	})
	s.Start()
	defer s.Drain()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, rr := postRun(t, ts.URL, `{"workload":"fft","protocol":"deny"}`)
	waitForMetrics(t, ts.URL, func(m Metrics) bool { return m.Failed == 1 })
	r, err := http.Get(ts.URL + "/result/" + rr.Cells[0].Key)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusInternalServerError {
		t.Fatalf("failed cell result = %d, want 500", r.StatusCode)
	}
	var body map[string]string
	if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body["error"] != errFake.Error() {
		t.Fatalf("error body %+v", body)
	}
}

// TestFailedCellFailsInEveryView pins that a local failure is one failed
// retirement on the event stream, so every view reports it the same way:
// the log's cell_failed carries the error, the trace span ends with
// outcome failed, the ledger counts a failure and no completion, and
// /watch shows the cell failed.
func TestFailedCellFailsInEveryView(t *testing.T) {
	log := obslog.New(obslog.Options{Min: obslog.Debug})
	s := newTestServer(t, 1, 4, func(spec workload.Spec, cfg topology.Config, classify bool) (*dve.Result, bool, error) {
		return nil, false, errFake
	})
	s.st.log = log
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, rr := postRun(t, ts.URL, `{"workload":"fft","protocol":"deny"}`)
	waitForMetrics(t, ts.URL, func(m Metrics) bool { return m.Failed == 1 })
	s.Drain()
	key := rr.Cells[0].Key

	logged := false
	for _, ev := range log.Recent() {
		if ev.Key != key || ev.Comp != compQueue {
			continue
		}
		if ev.Event == evCompleted {
			t.Fatalf("failed cell logged as completed: %+v", ev)
		}
		if ev.Event == evFailed && ev.Detail == errFake.Error() && (ev.Level == "warn" || ev.Level == "error") {
			logged = true
		}
	}
	if !logged {
		t.Errorf("no warn/error cell_failed with the cell error in the log: %+v", log.Recent())
	}

	_, evs := traceRecords(t, writeTrace(t, s.st))
	ends := 0
	for _, ev := range evs {
		if ev.Ph == "E" {
			ends++
			if ev.Args["outcome"] != "failed" || ev.Args["reason"] != errFake.Error() {
				t.Errorf("span end %+v, want outcome failed with the cell error", ev)
			}
		}
	}
	if ends != 1 {
		t.Errorf("%d span ends in the trace, want 1", ends)
	}

	if m := s.snapshotMetrics(); m.Failed != 1 || m.Completed != 0 {
		t.Errorf("ledger failed=%d completed=%d, want 1/0", m.Failed, m.Completed)
	}

	sw, ok := s.st.hub.lookup(rr.Sweep)
	if !ok {
		t.Fatal("sweep not tracked")
	}
	snap := sw.snapshot()
	if !snap.Done || snap.Agg.Failed != 1 || snap.Cells[0].Status != "failed" || snap.Cells[0].Err != errFake.Error() {
		t.Errorf("/watch snapshot %+v, want the cell failed with its error", snap)
	}
}

var errFake = &fakeErr{}

type fakeErr struct{}

func (*fakeErr) Error() string { return "injected cell failure" }

func TestResultServedByteIdentical(t *testing.T) {
	// A /result 200 body is exactly the cache payload, byte for byte.
	s := newTestServer(t, 1, 4, func(spec workload.Spec, cfg topology.Config, classify bool) (*dve.Result, bool, error) {
		return fakeResult(spec, cfg), false, nil
	})
	s.Start()
	defer s.Drain()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, rr := postRun(t, ts.URL, `{"workload":"fft","protocol":"deny"}`)
	waitForMetrics(t, ts.URL, func(m Metrics) bool { return m.Completed == 1 })
	r, err := http.Get(ts.URL + "/result/" + rr.Cells[0].Key)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := readAll(r)
	want, ok := s.cache.GetRaw(results.Key(rr.Cells[0].Key))
	if !ok {
		t.Fatal("completed cell missing from cache")
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("served bytes differ from cache payload:\n%s\n---\n%s", got, want)
	}
}

func readAll(r *http.Response) ([]byte, error) {
	defer r.Body.Close()
	var buf bytes.Buffer
	_, err := buf.ReadFrom(r.Body)
	return buf.Bytes(), err
}

// TestPrometheusEndpoint checks the text-format exposition: a second
// scrape surface over the same counters as the JSON /metrics, suitable
// for a stock Prometheus scraper.
func TestPrometheusEndpoint(t *testing.T) {
	s := newTestServer(t, 1, 4, func(spec workload.Spec, cfg topology.Config, classify bool) (*dve.Result, bool, error) {
		return fakeResult(spec, cfg), false, nil
	})
	s.Start()
	defer s.Drain()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	postRun(t, ts.URL, `{"workload":"fft","protocol":"deny"}`)
	waitForMetrics(t, ts.URL, func(m Metrics) bool { return m.Completed == 1 })

	r, err := http.Get(ts.URL + "/metrics/prom")
	if err != nil {
		t.Fatal(err)
	}
	if r.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics/prom = %d, want 200", r.StatusCode)
	}
	if ct := r.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q, want text/plain exposition format", ct)
	}
	body, err := readAll(r)
	if err != nil {
		t.Fatal(err)
	}
	out := string(body)
	for _, want := range []string{
		"# TYPE dveserve_uptime_seconds gauge",
		"# TYPE dveserve_enqueued_total counter",
		"dveserve_enqueued_total 1",
		"dveserve_completed_total 1",
		"dveserve_workers 1",
		"dveserve_running 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus exposition missing %q:\n%s", want, out)
		}
	}
}

// TestMetricsUptimeAndRunning checks the JSON metrics additions: uptime
// advances monotonically and running counts in-flight worker jobs (the
// wedged-pool signal: queue drained but running stuck > 0).
func TestMetricsUptimeAndRunning(t *testing.T) {
	block := make(chan struct{})
	s := newTestServer(t, 1, 4, func(spec workload.Spec, cfg topology.Config, classify bool) (*dve.Result, bool, error) {
		<-block
		return fakeResult(spec, cfg), false, nil
	})
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	postRun(t, ts.URL, `{"workload":"fft","protocol":"deny"}`)
	m := waitForMetrics(t, ts.URL, func(m Metrics) bool { return m.Running == 1 })
	if m.UptimeSeconds < 0 {
		t.Errorf("uptime went backwards: %v", m.UptimeSeconds)
	}
	close(block)
	waitForMetrics(t, ts.URL, func(m Metrics) bool { return m.Completed == 1 && m.Running == 0 })
	s.Drain()
}
