package serve

// Replay: a debug-level event log fed back through the stream's folds must
// rebuild what the live server showed — the /trace document (every record
// but its timestamp), each sweep's /watch terminal snapshot, and every
// ledger-backed /metrics field. TestReplayMatchesLiveViews drives one
// coordinator through every transition kind; the chaos harness repeats the
// check under injected faults; TestReplayExternalLog checks a log captured
// from a real dveserve process:
//
//	go test ./internal/serve -run TestReplayExternalLog \
//	    -replay-log fabric-log.jsonl -replay-trace fabric-trace.json \
//	    -replay-metrics fabric-metrics.json

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
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

var (
	replayLog     = flag.String("replay-log", "", "JSONL event log (-log-level debug) of a dveserve coordinator to replay")
	replayTrace   = flag.String("replay-trace", "", "/trace captured from the same coordinator while the log was written")
	replayMetrics = flag.String("replay-metrics", "", "/metrics JSON captured from the same coordinator while the log was written")
)

// replayEach applies every fabric record of a JSONL log to st, calling
// after (if non-nil) once per applied record. Records of other components
// (the embedded runner, workers sharing the file) are skipped.
func replayEach(r io.Reader, st *stream, after func()) error {
	dec := json.NewDecoder(r)
	for {
		var ev obslog.Event
		if err := dec.Decode(&ev); err == io.EOF {
			return nil
		} else if err != nil {
			return err
		}
		if k, ok := eventKinds[ev.Event]; !ok || k.comp != ev.Comp {
			continue // not one of the stream's own transitions
		}
		st.mu.Lock()
		st.apply(&ev)
		st.mu.Unlock()
		if after != nil {
			after()
		}
	}
}

// replay rebuilds the folds from a log alone.
func replay(r io.Reader) (*stream, error) {
	st := newStream(func() time.Duration { return 0 }, nil, defaultTraceEvents)
	return st, replayEach(r, st, nil)
}

// traceRecords parses a trace document with every timestamp zeroed, split
// into metadata and event records (WriteTrace emits all metadata first, so
// a trace written later only appends to each part).
func traceRecords(t *testing.T, doc []byte) (meta, events []telemetry.ParsedEvent) {
	t.Helper()
	evs, err := telemetry.ParseTrace(bytes.NewReader(doc))
	if err != nil {
		t.Fatalf("parse trace: %v", err)
	}
	for _, ev := range evs {
		ev.Ts = 0
		if ev.Ph == "M" {
			meta = append(meta, ev)
		} else {
			events = append(events, ev)
		}
	}
	return meta, events
}

func writeTrace(t *testing.T, st *stream) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := st.trace.b.WriteTrace(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// isPrefix reports whether a is a prefix of b, record by record.
func isPrefix(a, b []telemetry.ParsedEvent) bool {
	if len(a) > len(b) {
		return false
	}
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b[:len(a)])
	return bytes.Equal(ja, jb)
}

// ledgerJSON renders the ledger-backed fields of m (node health is the
// registry's clock, not a transition, so it is left out).
func ledgerJSON(m Metrics) string {
	v := Metrics{
		QueueLen: m.QueueLen, Leased: m.Leased,
		Enqueued: m.Enqueued, Completed: m.Completed, Failed: m.Failed, Rejected: m.Rejected,
		LeaseExpired: m.LeaseExpired, Requeued: m.Requeued, Poisoned: m.Poisoned,
		Renewals: m.Renewals, Heartbeats: m.Heartbeats, DegradedTransitions: m.DegradedTransitions,
		RemoteCompleted: m.RemoteCompleted, RemoteFailed: m.RemoteFailed,
		LeaseWaitMs: m.LeaseWaitMs, Sweeps: m.Sweeps, PoisonedCells: m.PoisonedCells,
	}
	for _, n := range m.Nodes {
		n.Healthy = false
		v.Nodes = append(v.Nodes, n)
	}
	b, _ := json.Marshal(v)
	return string(b)
}

// checkReplay replays a quiescent server's log and asserts the folds it
// rebuilds equal the live views.
func checkReplay(t *testing.T, s *Server, log []byte) {
	t.Helper()
	st, err := replay(bytes.NewReader(log))
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	liveMeta, liveEvs := traceRecords(t, writeTrace(t, s.st))
	gotMeta, gotEvs := traceRecords(t, writeTrace(t, st))
	if len(liveMeta) != len(gotMeta) || len(liveEvs) != len(gotEvs) ||
		!isPrefix(liveMeta, gotMeta) || !isPrefix(liveEvs, gotEvs) {
		t.Errorf("replayed trace differs from /trace: %d+%d records live, %d+%d replayed",
			len(liveMeta), len(liveEvs), len(gotMeta), len(gotEvs))
	}
	if live, got := ledgerJSON(s.snapshotMetrics()), ledgerJSON(st.ledgerMetrics()); live != got {
		t.Errorf("replayed ledger differs from /metrics:\nlive   %s\nreplay %s", live, got)
	}
	s.st.hub.mu.Lock()
	sweeps := append([]uint64(nil), s.st.hub.order...)
	s.st.hub.mu.Unlock()
	if len(sweeps) == 0 {
		t.Error("no sweeps tracked: nothing to compare")
	}
	for _, id := range sweeps {
		live, _ := s.st.hub.lookup(id)
		got, ok := st.hub.lookup(id)
		if !ok {
			t.Errorf("sweep %d missing from the replayed hub", id)
			continue
		}
		a, _ := json.Marshal(live.snapshot())
		b, _ := json.Marshal(got.snapshot())
		if !bytes.Equal(a, b) {
			t.Errorf("sweep %d /watch snapshot differs:\nlive   %s\nreplay %s", id, a, b)
		}
	}
}

// TestReplayMatchesLiveViews hand-drives a coordinator on a fake clock
// through every transition kind — queued, attached, cached and 429-rejected
// cells, remote completion with renewals, a renew after retirement, a
// checksum reject, a remote expiry with requeue and a late complete, a
// poison, a local failure and success, degraded exit and re-entry, drain —
// then rebuilds the views from the debug log alone.
func TestReplayMatchesLiveViews(t *testing.T) {
	var logBuf bytes.Buffer
	store, err := results.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{
		Runner:      experiments.Runner{Scale: experiments.Quick, Cache: store},
		Workers:     1,
		QueueDepth:  4,
		Role:        RoleCoordinator,
		LeaseTTL:    time.Second,
		WorkerTTL:   10 * time.Second,
		MaxAttempts: 2,
		Log:         obslog.New(obslog.Options{Min: obslog.Debug, Ring: -1, Sink: obslog.NewJSONSink(&logBuf)}),
	})
	if err != nil {
		t.Fatal(err)
	}
	clk := &testClock{}
	s.st.now = clk.Now
	s.runCell = func(spec workload.Spec, cfg topology.Config, classify bool) (*dve.Result, bool, error) {
		if spec.Name == "canneal" {
			return nil, false, errFake
		}
		return fakeResult(spec, cfg), false, nil
	}
	// Not started: the local pool is driven by hand so every step is
	// deterministic.
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	lease := func() leaseGrant {
		t.Helper()
		b, _ := json.Marshal(leaseRequest{Worker: "w1"})
		r, err := http.Post(ts.URL+pathLease, "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		defer r.Body.Close()
		var g leaseGrant
		if r.StatusCode != http.StatusOK || json.NewDecoder(r.Body).Decode(&g) != nil {
			t.Fatalf("lease = %d", r.StatusCode)
		}
		return g
	}
	complete := func(g leaseGrant, sum string) int {
		t.Helper()
		payload, _ := json.Marshal(fakeResult(g.Workload, g.Config))
		if sum == "" {
			sum, _ = results.PayloadSum(payload)
		}
		return postFabric(t, ts.URL, pathComplete, completeRequest{
			Worker: "w1", Lease: g.Lease, Key: g.Key, Payload: payload, Sum: sum})
	}
	expect := func(what string, got, want int) {
		t.Helper()
		if got != want {
			t.Fatalf("%s = %d, want %d", what, got, want)
		}
	}
	runLocal := func() {
		t.Helper()
		l, ok := s.lq.tryLease("local-0", true)
		if !ok {
			t.Fatal("no cell for the local pool")
		}
		s.runLease(l)
	}

	expect("register", postFabric(t, ts.URL, pathRegister, registerRequest{Worker: "w1"}), http.StatusOK)
	resp, a := postRun(t, ts.URL, `{"workload":"fft","protocols":["baseline","deny","dynamic"]}`)
	expect("sweep a", resp.StatusCode, http.StatusOK)
	resp, _ = postRun(t, ts.URL, `{"workloads":["fft","canneal"],"protocol":"deny"}`) // attach + queue
	expect("sweep b", resp.StatusCode, http.StatusOK)
	resp, _ = postRun(t, ts.URL, `{"workload":"lbm","protocol":"deny"}`)
	expect("sweep c (queue full)", resp.StatusCode, http.StatusTooManyRequests)

	g1 := lease() // fft/baseline: renewed, corrupt upload, completed, renewed after retirement
	expect("renew", postFabric(t, ts.URL, pathRenew, renewRequest{Worker: "w1", Lease: g1.Lease}), http.StatusOK)
	expect("corrupt complete", complete(g1, "deadbeef"), http.StatusConflict)
	expect("complete", complete(g1, ""), http.StatusOK)
	expect("renew after complete", postFabric(t, ts.URL, pathRenew, renewRequest{Worker: "w1", Lease: g1.Lease}), http.StatusGone)

	g2 := lease() // fft/deny: expires, is requeued, then its late result lands
	clk.Advance(2 * time.Second)
	s.lq.tick()
	expect("late complete", complete(g2, ""), http.StatusOK)

	for i := 0; i < 2; i++ { // fft/dynamic: two reported failures poison it
		g := lease()
		expect("fail", postFabric(t, ts.URL, pathFail, failRequest{Worker: "w1", Lease: g.Lease, Error: "boom"}), http.StatusOK)
	}
	runLocal() // canneal/deny fails locally

	resp, _ = postRun(t, ts.URL, `{"workload":"fft","protocol":"baseline"}`) // cached
	expect("sweep d", resp.StatusCode, http.StatusOK)
	clk.Advance(20 * time.Second) // w1 falls silent: degraded again
	s.refreshDegraded()
	resp, _ = postRun(t, ts.URL, `{"workload":"lbm","protocol":"deny"}`)
	expect("sweep e", resp.StatusCode, http.StatusOK)
	runLocal()
	s.Drain()

	m := s.snapshotMetrics()
	if m.Completed != 3 || m.Failed != 2 || m.Poisoned != 1 || m.Rejected != 1 ||
		m.LeaseExpired != 1 || m.Requeued != 2 || m.DegradedTransitions != 2 || m.Heartbeats != 2 {
		t.Fatalf("scenario did not reach every transition: %+v", m)
	}
	snap, _ := s.st.hub.lookup(a.Sweep)
	if agg := snap.snapshot().Agg; agg.Done != 2 || agg.Failed != 1 {
		t.Fatalf("sweep %d aggregate %+v, want 2 done / 1 failed", a.Sweep, agg)
	}
	checkReplay(t, s, logBuf.Bytes())
}

// TestReplayExternalLog checks a log captured from a real coordinator
// against the /trace and /metrics it served. The captures are taken while
// the log is still being written, so the live trace must be a prefix of the
// replayed one (records after the capture, such as drain markers, are
// allowed) and the captured ledger must equal the replayed ledger at some
// point of the log.
func TestReplayExternalLog(t *testing.T) {
	if *replayLog == "" {
		t.Skip("no -replay-log file given")
	}
	f, err := os.Open(*replayLog)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := ""
	if *replayMetrics != "" {
		b, err := os.ReadFile(*replayMetrics)
		if err != nil {
			t.Fatal(err)
		}
		var m Metrics
		if err := json.Unmarshal(b, &m); err != nil {
			t.Fatalf("parse %s: %v", *replayMetrics, err)
		}
		want = ledgerJSON(m)
	}
	st := newStream(func() time.Duration { return 0 }, nil, defaultTraceEvents)
	applied, matched := 0, false
	err = replayEach(f, st, func() {
		applied++
		if !matched && want != "" {
			matched = ledgerJSON(st.led.metrics()) == want
		}
	})
	if err != nil {
		t.Fatalf("replay %s: %v", *replayLog, err)
	}
	if applied == 0 {
		t.Fatalf("%s holds no fabric events", *replayLog)
	}
	if want != "" && !matched {
		t.Errorf("no prefix of the log rebuilds the captured ledger:\ncaptured %s\nfinal    %s",
			want, ledgerJSON(st.led.metrics()))
	}
	if *replayTrace != "" {
		doc, err := os.ReadFile(*replayTrace)
		if err != nil {
			t.Fatal(err)
		}
		liveMeta, liveEvs := traceRecords(t, doc)
		gotMeta, gotEvs := traceRecords(t, writeTrace(t, st))
		if !isPrefix(liveMeta, gotMeta) || !isPrefix(liveEvs, gotEvs) {
			t.Errorf("captured trace (%d+%d records) is not a prefix of the replayed trace (%d+%d)",
				len(liveMeta), len(liveEvs), len(gotMeta), len(gotEvs))
		}
	}
	t.Logf("replayed %d fabric events from %s", applied, *replayLog)
}
