package serve

// Tests for the fleet-observability surfaces: the /watch SSE + long-poll
// progress streams (mid-sweep join, slow consumers, drain), the wall-clock
// cell-lifecycle trace at /trace, the transition-time queue-depth gauge,
// the poison quarantine ledger, and the structured event log threading.

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dve/internal/dve"
	"dve/internal/experiments"
	"dve/internal/obslog"
	"dve/internal/results"
	"dve/internal/telemetry"
	"dve/internal/topology"
	"dve/internal/workload"
)

// sseEvent is one parsed Server-Sent Event frame.
type sseEvent struct {
	name string
	data []byte
}

// readSSE parses the next event frame off an SSE stream.
func readSSE(t *testing.T, br *bufio.Reader) (sseEvent, error) {
	t.Helper()
	var ev sseEvent
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			return ev, err
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case strings.HasPrefix(line, "event: "):
			ev.name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			ev.data = []byte(strings.TrimPrefix(line, "data: "))
		case line == "":
			if ev.name != "" || ev.data != nil {
				return ev, nil
			}
		}
	}
}

// gatedServer builds a test server whose runCell blocks until a token is
// sent on the returned channel (one token releases one cell).
func gatedServer(t *testing.T, workers, depth int) (*Server, chan struct{}) {
	t.Helper()
	release := make(chan struct{}, 64)
	s := newTestServer(t, workers, depth, func(spec workload.Spec, cfg topology.Config, classify bool) (*dve.Result, bool, error) {
		<-release
		return fakeResult(spec, cfg), false, nil
	})
	return s, release
}

// TestWatchStreamLifecycle joins a sweep mid-flight and checks the SSE
// contract end to end: a snapshot reflecting progress so far, then one
// "cell" delta per transition, then "done" whose aggregate matches the
// service's /metrics totals.
func TestWatchStreamLifecycle(t *testing.T) {
	s, release := gatedServer(t, 2, 16)
	s.Start()
	defer s.Drain()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, rr := postRun(t, ts.URL, `{"workloads":["fft","lbm"],"protocols":["baseline","deny"]}`)
	if resp.StatusCode != http.StatusOK || len(rr.Cells) != 4 {
		t.Fatalf("POST /run = %d with %d cells", resp.StatusCode, len(rr.Cells))
	}
	if rr.Sweep == 0 {
		t.Fatal("POST /run minted no sweep ID")
	}

	// Let one cell finish before joining: the snapshot must carry that
	// progress, not replay it as deltas.
	release <- struct{}{}
	waitForMetrics(t, ts.URL, func(m Metrics) bool { return m.Completed == 1 })

	r, err := http.Get(fmt.Sprintf("%s/watch/%d", ts.URL, rr.Sweep))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if ct := r.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q, want text/event-stream", ct)
	}
	br := bufio.NewReader(r.Body)

	ev, err := readSSE(t, br)
	if err != nil || ev.name != "snapshot" {
		t.Fatalf("first event = %q (%v), want snapshot", ev.name, err)
	}
	var snap watchSnapshot
	if err := json.Unmarshal(ev.data, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Sweep != rr.Sweep || snap.Agg.Total != 4 || snap.Agg.Done < 1 || snap.Done {
		t.Fatalf("mid-sweep snapshot %+v, want total 4 with >=1 done, not terminal", snap)
	}

	// The attached subscriber shows up in the watcher gauge.
	if m := getMetrics(t, ts.URL); m.Watchers != 1 {
		t.Fatalf("watchers gauge = %d with one stream attached", m.Watchers)
	}

	for i := 0; i < 3; i++ {
		release <- struct{}{}
	}
	var last watchEvent
	for {
		ev, err := readSSE(t, br)
		if err != nil {
			t.Fatalf("stream ended early: %v (last delta %+v)", err, last)
		}
		if ev.name == "cell" {
			if err := json.Unmarshal(ev.data, &last); err != nil {
				t.Fatal(err)
			}
			if last.Sweep != rr.Sweep || last.Seq == 0 {
				t.Fatalf("delta %+v missing sweep/seq", last)
			}
			continue
		}
		if ev.name != "done" {
			t.Fatalf("unexpected event %q mid-stream", ev.name)
		}
		if err := json.Unmarshal(ev.data, &snap); err != nil {
			t.Fatal(err)
		}
		break
	}
	if !snap.Done || snap.Agg.Done != 4 || snap.Agg.Failed != 0 {
		t.Fatalf("final snapshot %+v, want 4 done", snap)
	}

	// The stream's final aggregate and the service metrics agree.
	m := getMetrics(t, ts.URL)
	if uint64(snap.Agg.Done) != m.Completed || uint64(snap.Agg.Failed) != m.Failed {
		t.Fatalf("SSE aggregate %+v disagrees with /metrics (completed %d, failed %d)",
			snap.Agg, m.Completed, m.Failed)
	}
	if m.Sweeps != rr.Sweep {
		t.Fatalf("sweeps gauge = %d, want %d", m.Sweeps, rr.Sweep)
	}
}

// TestWatchCachedSweepDoneImmediately: a resubmitted matrix answered
// entirely from cache is born terminal — snapshot then done, no deltas.
func TestWatchCachedSweepDoneImmediately(t *testing.T) {
	s := newTestServer(t, 2, 16, func(spec workload.Spec, cfg topology.Config, classify bool) (*dve.Result, bool, error) {
		return fakeResult(spec, cfg), false, nil
	})
	s.Start()
	defer s.Drain()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	postRun(t, ts.URL, `{"workloads":["fft","lbm"],"protocols":["deny"]}`)
	waitForMetrics(t, ts.URL, func(m Metrics) bool { return m.Completed == 2 })
	_, rr := postRun(t, ts.URL, `{"workloads":["fft","lbm"],"protocols":["deny"]}`)

	r, err := http.Get(fmt.Sprintf("%s/watch/%d", ts.URL, rr.Sweep))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	br := bufio.NewReader(r.Body)
	ev, err := readSSE(t, br)
	if err != nil || ev.name != "snapshot" {
		t.Fatalf("first event = %q (%v)", ev.name, err)
	}
	var snap watchSnapshot
	json.Unmarshal(ev.data, &snap)
	if !snap.Done || snap.Agg.CacheHits != 2 {
		t.Fatalf("cached sweep snapshot %+v, want done with 2 cache hits", snap)
	}
	if ev, err = readSSE(t, br); err != nil || ev.name != "done" {
		t.Fatalf("second event = %q (%v), want done", ev.name, err)
	}
}

// TestWatchStreamEndsOnDrain: closing the hub (what Drain does once the
// queue is empty) ends every attached stream with an explicit "end" frame
// rather than a dropped connection.
func TestWatchStreamEndsOnDrain(t *testing.T) {
	s, release := gatedServer(t, 1, 8)
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, rr := postRun(t, ts.URL, `{"workload":"fft","protocol":"deny"}`)
	r, err := http.Get(fmt.Sprintf("%s/watch/%d", ts.URL, rr.Sweep))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	br := bufio.NewReader(r.Body)
	if ev, err := readSSE(t, br); err != nil || ev.name != "snapshot" {
		t.Fatalf("first event = %q (%v)", ev.name, err)
	}

	s.st.hub.closeAll() // what Drain's drain_done event does after the queue empties
	for {
		ev, err := readSSE(t, br)
		if err != nil {
			t.Fatalf("stream died without an end frame: %v", err)
		}
		if ev.name == "cell" {
			continue // transitions racing the close are fine
		}
		if ev.name != "end" {
			t.Fatalf("got %q, want end", ev.name)
		}
		var body map[string]string
		json.Unmarshal(ev.data, &body)
		if body["reason"] != "draining" {
			t.Fatalf("end reason %+v", body)
		}
		break
	}

	release <- struct{}{}
	s.Drain()

	// Attaching after drain still answers: final snapshot, then end.
	r2, err := http.Get(fmt.Sprintf("%s/watch/%d", ts.URL, rr.Sweep))
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Body.Close()
	br2 := bufio.NewReader(r2.Body)
	names := []string{}
	for i := 0; i < 2; i++ {
		ev, err := readSSE(t, br2)
		if err != nil {
			t.Fatal(err)
		}
		names = append(names, ev.name)
	}
	if names[0] != "snapshot" || names[1] != "end" {
		t.Fatalf("post-drain watch events %v, want [snapshot end]", names)
	}
}

// TestWatchLongPoll drives the ?poll=1 fallback: deltas after a known seq,
// an immediate empty answer on a terminal sweep, and waiting for news.
func TestWatchLongPoll(t *testing.T) {
	s, release := gatedServer(t, 1, 8)
	s.Start()
	defer s.Drain()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, rr := postRun(t, ts.URL, `{"workload":"fft","protocol":"deny"}`)
	poll := func(after uint64) pollResponse {
		t.Helper()
		r, err := http.Get(fmt.Sprintf("%s/watch/%d?poll=1&after=%d", ts.URL, rr.Sweep, after))
		if err != nil {
			t.Fatal(err)
		}
		defer r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Fatalf("poll = %d", r.StatusCode)
		}
		var pr pollResponse
		if err := json.NewDecoder(r.Body).Decode(&pr); err != nil {
			t.Fatal(err)
		}
		return pr
	}

	// The queued->running transition lands as soon as the pool grabs the
	// cell, so polling from 0 returns it without waiting for completion.
	pr := poll(0)
	if len(pr.Events) == 0 && pr.Snapshot == nil {
		t.Fatalf("first poll returned nothing: %+v", pr)
	}
	var seq uint64
	for _, ev := range pr.Events {
		seq = ev.Seq
	}
	if pr.Snapshot != nil {
		seq = pr.Snapshot.Seq
	}

	// Poll for the next delta while the cell completes.
	done := make(chan pollResponse, 1)
	go func() {
		r, err := http.Get(fmt.Sprintf("%s/watch/%d?poll=1&after=%d", ts.URL, rr.Sweep, seq))
		if err != nil {
			done <- pollResponse{}
			return
		}
		defer r.Body.Close()
		var pr pollResponse
		json.NewDecoder(r.Body).Decode(&pr)
		done <- pr
	}()
	release <- struct{}{}
	select {
	case pr = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("long poll never woke on publish")
	}
	found := false
	for _, ev := range pr.Events {
		if ev.Cell.Status == "done" {
			found = true
			seq = ev.Seq
		}
	}
	if !found && pr.Snapshot == nil {
		t.Fatalf("completion poll %+v carried no done transition", pr)
	}

	// A terminal sweep answers a caught-up poller immediately (no hang).
	waitForMetrics(t, ts.URL, func(m Metrics) bool { return m.Completed == 1 })
	pr = poll(1 << 62)
	if len(pr.Events) != 0 || pr.Snapshot != nil {
		t.Fatalf("caught-up poll on terminal sweep returned %+v", pr)
	}
}

func TestWatchRequestValidation(t *testing.T) {
	s := newTestServer(t, 1, 4, nil)
	s.Start()
	defer s.Drain()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, tc := range []struct {
		path string
		want int
	}{
		{"/watch/999999", http.StatusNotFound},
		{"/watch/0", http.StatusBadRequest},
		{"/watch/xyz", http.StatusBadRequest},
	} {
		r, err := http.Get(ts.URL + tc.path)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != tc.want {
			t.Errorf("GET %s = %d, want %d", tc.path, r.StatusCode, tc.want)
		}
	}
	r, err := http.Post(ts.URL+"/watch/1", "text/plain", strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /watch/1 = %d, want 405", r.StatusCode)
	}
}

// TestWatchSlowConsumerDropAndMark pins the backpressure contract at the
// hub layer: a subscriber that stops draining never blocks a publisher —
// overflowing events are dropped and the subscriber is marked for resync.
func TestWatchSlowConsumerDropAndMark(t *testing.T) {
	sw := &sweepWatch{id: 7, byKey: make(map[string]int), subs: make(map[*watchSub]struct{})}
	sw.addCell(watchCell{Key: "k", Status: "queued"})
	sub, snap, ok := sw.subscribe()
	if !ok || snap.Agg.Total != 1 {
		t.Fatalf("subscribe: ok=%v snap=%+v", ok, snap)
	}

	// Publish far past the buffer without draining; every call must return
	// promptly (a blocking publish would deadlock this single goroutine).
	statuses := []string{"running", "queued"}
	for i := 0; i < watchSubBuffer+16; i++ {
		sw.update("k", statuses[i%2], "")
	}
	if !sub.dropped.Load() {
		t.Fatal("overflowed subscriber was not marked dropped")
	}
	if n := len(sub.ch); n != watchSubBuffer {
		t.Fatalf("subscriber buffered %d events, want exactly %d", n, watchSubBuffer)
	}
	// The sweep's own state kept advancing while the consumer lagged.
	if got := sw.snapshot(); got.Seq != uint64(watchSubBuffer+16) {
		t.Fatalf("seq = %d, want %d", got.Seq, watchSubBuffer+16)
	}
}

// TestWatchSlowConsumerResyncs drives the drop path through the HTTP
// handler: a stream that lagged gets a "resync" snapshot before its next
// delta, instead of a gapped event sequence.
func TestWatchSlowConsumerResyncs(t *testing.T) {
	s, release := gatedServer(t, 1, 8)
	s.Start()
	defer s.Drain()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, rr := postRun(t, ts.URL, `{"workload":"fft","protocol":"deny"}`)
	r, err := http.Get(fmt.Sprintf("%s/watch/%d", ts.URL, rr.Sweep))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	br := bufio.NewReader(r.Body)
	if ev, err := readSSE(t, br); err != nil || ev.name != "snapshot" {
		t.Fatalf("first event = %q (%v)", ev.name, err)
	}

	// Overflow this subscriber directly (the HTTP reader above is not
	// draining its channel yet), then publish one more delta to wake it.
	sw, ok := s.st.hub.lookup(rr.Sweep)
	if !ok {
		t.Fatal("sweep not tracked")
	}
	statuses := []string{"running", "queued"}
	for i := 0; i < watchSubBuffer+8; i++ {
		sw.update("dummy-key-not-in-sweep", "x", "") // no-op: unknown key
		sw.update(rr.Cells[0].Key, statuses[i%2], "")
	}

	// The reader drains now: after the buffered run of deltas it must see a
	// resync frame (the dropped mark) before the stream continues.
	sawResync := false
	release <- struct{}{}
	for !sawResync {
		ev, err := readSSE(t, br)
		if err != nil {
			t.Fatalf("stream ended before resync: %v", err)
		}
		switch ev.name {
		case "resync":
			sawResync = true
		case "cell", "done":
			// deltas and completion may interleave before the resync frame
			// depending on where the drop landed
			if ev.name == "done" {
				t.Fatal("stream completed without a resync after overflow")
			}
		default:
			t.Fatalf("unexpected event %q", ev.name)
		}
	}
}

// TestWatchHubFanout pins the multi-sweep semantics: a shared cell's
// execution events reach every sweep containing it, while intake statuses
// (cache hit, rejection) stay sweep-local.
func TestWatchHubFanout(t *testing.T) {
	h := newWatchHub()
	cell := func(name, sweep string) *obslog.Event {
		return &obslog.Event{Event: name, Sweep: sweep, Workload: "fft", Protocol: "deny", Key: "k1"}
	}
	h.apply(cell(evEnqueued, "1"))
	h.apply(cell(evEnqueued, "2"))
	h.apply(cell(evEnqueued, "")) // no sweep = untracked; must be ignored

	h.apply(cell(evGranted, "1"))
	s1, _ := h.lookup(1)
	s2, _ := h.lookup(2)
	if s1.snapshot().Agg.Running != 1 || s2.snapshot().Agg.Running != 1 {
		t.Fatalf("fanout missed a sweep: %+v / %+v", s1.snapshot(), s2.snapshot())
	}

	h.apply(cell(evCacheHit, "3"))
	s3, _ := h.lookup(3)
	if s1.snapshot().Agg.CacheHits != 0 || s2.snapshot().Agg.CacheHits != 0 {
		t.Fatal("cache hit leaked into another sweep")
	}
	if s3.snapshot().Agg.CacheHits != 1 {
		t.Fatal("cache hit missed its sweep")
	}
	if _, ok := h.lookup(0); ok {
		t.Fatal("sweep 0 was tracked")
	}
}

// TestFabricTraceValidates runs a quick matrix and checks the acceptance
// bar for the lifecycle trace: /trace parses as Chrome trace JSON, passes
// the structural validator in the wall-clock domain, and shows every cell's
// enqueue instant and execution span attributed to a worker track.
func TestFabricTraceValidates(t *testing.T) {
	s := newTestServer(t, 2, 16, func(spec workload.Spec, cfg topology.Config, classify bool) (*dve.Result, bool, error) {
		return fakeResult(spec, cfg), false, nil
	})
	s.Start()
	defer s.Drain()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, rr := postRun(t, ts.URL, `{"workloads":["fft","lbm"],"protocols":["baseline","deny"]}`)
	waitForMetrics(t, ts.URL, func(m Metrics) bool { return m.Completed == 4 })

	r, err := http.Get(ts.URL + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	evs, err := telemetry.ParseTrace(r.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := telemetry.ValidateTrace(evs); err != nil {
		t.Fatalf("fabric trace invalid: %v", err)
	}
	if err := telemetry.ValidateTraceDomain(evs, telemetry.DomainWall); err != nil {
		t.Fatalf("fabric trace domain: %v", err)
	}

	enqueues := map[string]bool{} // key8 -> seen enqueue instant
	spans := map[string]int{}     // key8 -> B records on worker tracks
	counters := 0
	workerTracks := map[string]bool{}
	for _, ev := range evs {
		switch {
		case ev.Ph == "i" && strings.HasPrefix(ev.Name, "enqueued "):
			enqueues[strings.TrimPrefix(ev.Name, "enqueued ")] = true
		case ev.Ph == "B" && strings.HasPrefix(ev.Name, "cell "):
			if ev.Tid == 0 {
				t.Fatalf("cell span %q on the queue track", ev.Name)
			}
			parts := strings.Fields(ev.Name)
			spans[parts[len(parts)-1]]++
		case ev.Ph == "C" && ev.Name == "queue_depth":
			counters++
		case ev.Ph == "M" && ev.Name == "thread_name":
			if n, _ := ev.Args["name"].(string); strings.HasPrefix(n, "worker ") {
				workerTracks[n] = true
			}
		}
	}
	for _, c := range rr.Cells {
		k8 := c.Key[:8]
		if !enqueues[k8] {
			t.Errorf("cell %s/%s: no enqueue instant in trace", c.Workload, c.Protocol)
		}
		if spans[k8] == 0 {
			t.Errorf("cell %s/%s: no execution span in trace", c.Workload, c.Protocol)
		}
	}
	if counters == 0 {
		t.Error("no queue_depth counter series in trace")
	}
	if len(workerTracks) == 0 {
		t.Error("no worker-named tracks in trace metadata")
	}
}

// TestQueueDepthGauge pins the transition-time gauge: /metrics/prom's
// dveserve_queue_len reads the stored depth, matching the JSON QueueLen
// through fill and drain.
func TestQueueDepthGauge(t *testing.T) {
	s, release := gatedServer(t, 1, 8)
	s.Start()
	defer s.Drain()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	postRun(t, ts.URL, `{"workloads":["fft"],"protocols":["baseline","deny","dynamic"]}`)
	// One cell leased by the single (blocked) worker; two pending.
	waitForMetrics(t, ts.URL, func(m Metrics) bool { return m.QueueLen == 2 && m.Leased == 1 })
	if d := s.st.ledgerMetrics().QueueLen; d != 2 {
		t.Fatalf("ledger queue depth = %d, want 2", d)
	}
	prom := scrapeProm(t, ts.URL)
	if v, ok := promValue(prom, "dveserve_queue_len"); !ok || v != 2 {
		t.Fatalf("dveserve_queue_len = %v (found %v), want 2", v, ok)
	}

	for i := 0; i < 3; i++ {
		release <- struct{}{}
	}
	waitForMetrics(t, ts.URL, func(m Metrics) bool { return m.Completed == 3 })
	prom = scrapeProm(t, ts.URL)
	if v, ok := promValue(prom, "dveserve_queue_len"); !ok || v != 0 {
		t.Fatalf("post-drain dveserve_queue_len = %v (found %v), want 0", v, ok)
	}
}

func scrapeProm(t *testing.T, url string) string {
	t.Helper()
	r, err := http.Get(url + "/metrics/prom")
	if err != nil {
		t.Fatal(err)
	}
	body, err := readAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// TestObservabilityGaugesExposed checks the placement-input metrics land in
// both surfaces: cache hit rate, lease-wait histogram, sweep/watcher/trace
// gauges in /metrics/prom, and that the exposition stays format-valid.
func TestObservabilityGaugesExposed(t *testing.T) {
	s := newTestServer(t, 1, 8, func(spec workload.Spec, cfg topology.Config, classify bool) (*dve.Result, bool, error) {
		return fakeResult(spec, cfg), false, nil
	})
	s.Start()
	defer s.Drain()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, rr := postRun(t, ts.URL, `{"workload":"fft","protocol":"deny"}`)
	waitForMetrics(t, ts.URL, func(m Metrics) bool { return m.Completed == 1 })
	// Fetching the landed result reads the cache, so the hit-rate gauge
	// moves; the resubmission checks the sweep counter.
	if r, err := http.Get(ts.URL + "/result/" + rr.Cells[0].Key); err == nil {
		readAll(r)
	}
	postRun(t, ts.URL, `{"workload":"fft","protocol":"deny"}`)

	prom := scrapeProm(t, ts.URL)
	if err := telemetry.ValidateExposition(strings.NewReader(prom)); err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, prom)
	}
	for _, name := range []string{
		"dveserve_cache_hit_rate",
		"dveserve_lease_wait_ms_count",
		"dveserve_lease_wait_ms_sum",
		"dveserve_sweeps_total",
		"dveserve_watchers",
		"dveserve_trace_events",
		"dveserve_trace_events_dropped_total",
		"dveserve_log_events_total",
		"dveserve_log_sink_failures_total",
	} {
		if _, ok := promValue(prom, name); !ok {
			t.Errorf("missing %s in /metrics/prom", name)
		}
	}
	if v, ok := promValue(prom, "dveserve_cache_hit_rate"); !ok || v <= 0 {
		t.Errorf("cache hit rate = %v after a cache-hit resubmission", v)
	}
	if v, ok := promValue(prom, "dveserve_lease_wait_ms_count"); !ok || v < 1 {
		t.Errorf("lease wait histogram count = %v, want >= 1", v)
	}
	if v, ok := promValue(prom, "dveserve_sweeps_total"); !ok || v != 2 {
		t.Errorf("sweeps total = %v, want 2", v)
	}

	m := getMetrics(t, ts.URL)
	if m.LeaseWaitMs.Count() < 1 {
		t.Errorf("JSON metrics lease-wait histogram empty: %+v", m.LeaseWaitMs)
	}
	if m.CacheHitRate <= 0 {
		t.Errorf("JSON metrics cache hit rate = %v", m.CacheHitRate)
	}
}

// TestNodeGaugesPerWorker checks the per-node placement gauges: one labeled
// sample per registered fabric worker in /metrics/prom and a Nodes row in
// the JSON metrics.
func TestNodeGaugesPerWorker(t *testing.T) {
	s := newCoordinator(t, 200*time.Millisecond, time.Minute, nil)
	s.Start()
	defer s.Drain()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	w := newFabricWorker(t, ts.URL, "nodeA", fakeExec)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go w.Run(ctx)
	waitForMetrics(t, ts.URL, func(m Metrics) bool { return !m.Degraded })

	postRun(t, ts.URL, `{"workloads":["fft"],"protocols":["baseline","deny"]}`)
	m := waitForMetrics(t, ts.URL, func(m Metrics) bool { return m.Completed == 2 })
	if len(m.Nodes) != 1 || m.Nodes[0].ID != "nodeA" {
		t.Fatalf("nodes = %+v, want one row for nodeA", m.Nodes)
	}
	n := m.Nodes[0]
	if !n.Healthy || n.Completed != 2 || n.Leased < 2 {
		t.Fatalf("nodeA row %+v, want healthy with 2 completed", n)
	}

	prom := scrapeProm(t, ts.URL)
	for _, line := range []string{
		`dveserve_node_completed{node="nodeA"} 2`,
		`dveserve_node_healthy{node="nodeA"} 1`,
		`dveserve_node_inflight{node="nodeA"} 0`,
	} {
		if !strings.Contains(prom, line) {
			t.Errorf("missing %q in /metrics/prom:\n%s", line, prom)
		}
	}
}

// TestPoisonQuarantineLedger drives a cell past the attempt cap through the
// fabric fail path and checks the full ledger: the poisoned counter, the
// quarantined key in /metrics, the failed job state, and the structured
// log's cell_poisoned event carrying the offending key.
func TestPoisonQuarantineLedger(t *testing.T) {
	store, err := results.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	log := obslog.New(obslog.Options{Min: obslog.Debug})
	s, err := New(Config{
		Runner:      experiments.Runner{Scale: experiments.Quick, Cache: store},
		Workers:     1,
		QueueDepth:  8,
		Role:        RoleCoordinator,
		LeaseTTL:    time.Minute,
		MaxAttempts: 2,
		Log:         log,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Not started: the queue is driven directly so the local pool cannot
	// race the injected failures.

	spec, _ := workload.ByName("fft", 16)
	cfg := topology.Default(topology.ProtoDeny)
	key, err := s.runner.CellKey(spec, cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	if code, err := s.enqueue(job{key: key, spec: spec, cfg: cfg, sweep: 1, cell: 0}); err != nil || code != http.StatusAccepted {
		t.Fatalf("enqueue = %d, %v", code, err)
	}

	fails := 0
	for {
		l, ok := s.lq.tryLease("w1", false)
		if !ok {
			break
		}
		s.lq.fail(l.id, "injected crash")
		fails++
		if fails > 10 {
			t.Fatal("cell never poisoned")
		}
	}
	if fails != 2 {
		t.Fatalf("granted %d leases before poison, want MaxAttempts=2", fails)
	}

	m := s.snapshotMetrics()
	if m.Poisoned != 1 || m.Failed != 1 {
		t.Fatalf("metrics %+v, want 1 poisoned / 1 failed", m)
	}
	if len(m.PoisonedCells) != 1 || m.PoisonedCells[0] != string(key) {
		t.Fatalf("quarantine ledger %v, want [%s]", m.PoisonedCells, key)
	}
	s.mu.Lock()
	st := s.jobs[key]
	s.mu.Unlock()
	if st == nil || st.status != "failed" || !strings.Contains(st.err, "poisoned") {
		t.Fatalf("job state %+v, want failed/poisoned", st)
	}

	found := false
	for _, ev := range log.Recent() {
		if ev.Event == "cell_poisoned" && ev.Key == string(key) && ev.Sweep == "1" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no cell_poisoned log event with the offending key; recent: %+v", log.Recent())
	}
}

// TestLogDisabledPathAllocFree pins the zero-cost-when-disabled contract at
// the serve layer's guarded call sites.
func TestLogDisabledPathAllocFree(t *testing.T) {
	w := &Worker{cfg: WorkerConfig{ID: "w0"}} // nil Log
	grant := leaseGrant{Lease: 9, Key: "k", Sweep: 3, Cell: 1}
	if allocs := testing.AllocsPerRun(200, func() {
		w.logGrant(obslog.Info, "cell_start", grant, "")
	}); allocs != 0 {
		t.Fatalf("disabled logGrant allocates %.1f/op, want 0", allocs)
	}

	var nilLog *obslog.Logger
	if allocs := testing.AllocsPerRun(200, func() {
		if nilLog.On(obslog.Warn) {
			t.Fatal("nil logger claims enabled")
		}
	}); allocs != 0 {
		t.Fatalf("nil-logger guard allocates %.1f/op, want 0", allocs)
	}

	// The stream's log fold, with no logger and with one filtering the
	// event's level out.
	ev := obslog.Event{Event: evGranted, Comp: compQueue, Key: "k", Sweep: "3", Lease: 9}
	errOnly := obslog.New(obslog.Options{Min: obslog.Error})
	for _, l := range []*obslog.Logger{nil, errOnly} {
		if allocs := testing.AllocsPerRun(200, func() { logFold(l, &ev) }); allocs != 0 {
			t.Fatalf("disabled log fold allocates %.1f/op, want 0", allocs)
		}
	}
	if errOnly.Emitted() != 0 {
		t.Fatal("filtered log fold recorded an event")
	}
}
