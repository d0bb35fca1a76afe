package telemetry

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"dve/internal/sim"
	"dve/internal/stats"
)

// tracerAt returns a tracing-enabled tracer bound to a fresh engine, plus
// the engine for advancing simulated time.
func tracerAt(t *testing.T) (*Tracer, *sim.Engine) {
	t.Helper()
	tr := NewTracer(Options{TraceEvents: true, FlightRecorderLines: 8})
	eng := sim.NewEngine()
	tr.Attach(eng)
	return tr, eng
}

// advance moves the engine clock to the given cycle via a scheduled no-op.
func advance(eng *sim.Engine, to sim.Cycle) {
	eng.At(to, func() {})
	eng.Run()
}

func TestSpanRoundTrip(t *testing.T) {
	tr, eng := tracerAt(t)
	sp := tr.Begin(CompHomeDir, 0, "GETS", 42)
	if sp == 0 {
		t.Fatal("Begin returned the dropped-span id with tracing enabled")
	}
	advance(eng, 10)
	tr.End(sp)

	var buf bytes.Buffer
	if err := tr.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	evs, err := ParseTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateTrace(evs); err != nil {
		t.Fatal(err)
	}
	var b, e *ParsedEvent
	for i := range evs {
		switch evs[i].Ph {
		case "B":
			b = &evs[i]
		case "E":
			e = &evs[i]
		}
	}
	if b == nil || e == nil {
		t.Fatalf("missing B/E pair in %d events", len(evs))
	}
	if b.Name != "GETS" || b.Ts != 0 || e.Ts != 10 {
		t.Errorf("span B=%+v E=%+v, want GETS over [0,10]", b, e)
	}
	if got := b.Args["line"]; got != float64(42) {
		t.Errorf("span line arg = %v, want 42", got)
	}
}

// Concurrent spans on one track must land on distinct lanes (distinct
// tids), and a freed lane must be reused — that is what keeps per-track
// timestamps monotone and B/E properly nested.
func TestLaneAssignment(t *testing.T) {
	tr, eng := tracerAt(t)
	a := tr.Begin(CompHomeDir, 0, "a", 1)
	b := tr.Begin(CompHomeDir, 0, "b", 2)
	if a == b {
		t.Fatal("concurrent spans share a SpanID")
	}
	advance(eng, 5)
	tr.End(a)
	tr.End(b)
	advance(eng, 6)
	c := tr.Begin(CompHomeDir, 0, "c", 3)
	if c != a {
		t.Errorf("freed lane not reused: first=%#x reuse=%#x", uint64(a), uint64(c))
	}
	tr.End(c)

	var buf bytes.Buffer
	if err := tr.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	evs, err := ParseTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateTrace(evs); err != nil {
		t.Fatal(err)
	}
}

func TestEndZeroIsNoOp(t *testing.T) {
	tr := NewTracer(Options{}) // everything disabled
	sp := tr.Begin(CompLLC, 0, "miss", 7)
	if sp != 0 {
		t.Fatalf("disabled Begin = %#x, want 0", uint64(sp))
	}
	tr.End(sp) // must not panic
	tr.End(0)
	if tr.Events() != 0 {
		t.Errorf("disabled tracer buffered %d events", tr.Events())
	}
}

func TestDanglingSpansClosedAtWrite(t *testing.T) {
	tr, eng := tracerAt(t)
	tr.Begin(CompReplicaDir, 1, "LocalGETX", 9) // never Ended
	advance(eng, 20)
	var buf bytes.Buffer
	if err := tr.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	evs, err := ParseTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateTrace(evs); err != nil {
		t.Errorf("dangling span not closed: %v", err)
	}
}

func TestLaneExhaustionDropsNotPanics(t *testing.T) {
	tr, _ := tracerAt(t)
	spans := make([]SpanID, 0, laneCap+10)
	for i := 0; i < laneCap+10; i++ {
		spans = append(spans, tr.Begin(CompMem, 0, "x", uint64(i)))
	}
	if tr.Dropped() != 10 {
		t.Errorf("Dropped = %d, want 10", tr.Dropped())
	}
	for _, sp := range spans {
		tr.End(sp) // dropped spans are End(0) no-ops
	}
	var buf bytes.Buffer
	if err := tr.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	evs, err := ParseTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateTrace(evs); err != nil {
		t.Error(err)
	}
}

func TestCompleteAndInstantEvents(t *testing.T) {
	tr, eng := tracerAt(t)
	tr.Complete(CompLink, 0, "xfer", "bytes", 72, 0, 15)
	tr.Complete(CompLink, 0, "xfer", "bytes", 8, 5, 10) // overlaps: second lane
	tr.Point(CompLLC, 1, "fill", 33)
	advance(eng, 50)
	var buf bytes.Buffer
	if err := tr.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	evs, err := ParseTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateTrace(evs); err != nil {
		t.Fatal(err)
	}
	var xs, is int
	for _, ev := range evs {
		switch ev.Ph {
		case "X":
			xs++
			if ev.Dur == 0 {
				t.Errorf("X event lost its dur: %+v", ev)
			}
		case "i":
			is++
		}
	}
	if xs != 2 || is != 1 {
		t.Errorf("got %d X + %d i events, want 2 + 1", xs, is)
	}
}

// Identical emission sequences must serialise to identical bytes — traces
// inherit the simulator's determinism contract.
func TestTraceBytesDeterministic(t *testing.T) {
	render := func() []byte {
		tr, eng := tracerAt(t)
		sp := tr.Begin(CompHomeDir, 0, "GETS", 1)
		tr.Point(CompRAS, 1, "detect", 2)
		tr.Complete(CompMem, 1, "dram-read", "addr", 64, 0, 24)
		advance(eng, 12)
		tr.End(sp)
		var buf bytes.Buffer
		if err := tr.WriteTrace(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(render(), render()) {
		t.Error("two identical runs produced different trace bytes")
	}
}

func TestValidateTraceRejectsBadInput(t *testing.T) {
	cases := []struct {
		name string
		evs  []ParsedEvent
		want string
	}{
		{"regressing ts", []ParsedEvent{
			{Name: "a", Ph: "i", Ts: 10, Pid: 0, Tid: 1},
			{Name: "b", Ph: "i", Ts: 9, Pid: 0, Tid: 1},
		}, "ts 9 < previous ts 10"},
		{"unmatched E", []ParsedEvent{
			{Name: "a", Ph: "E", Ts: 1, Pid: 0, Tid: 1},
		}, "E without open B"},
		{"mismatched names", []ParsedEvent{
			{Name: "a", Ph: "B", Ts: 1, Pid: 0, Tid: 1},
			{Name: "b", Ph: "E", Ts: 2, Pid: 0, Tid: 1},
		}, "does not match open B"},
		{"unclosed B", []ParsedEvent{
			{Name: "a", Ph: "B", Ts: 1, Pid: 0, Tid: 1},
		}, "unclosed B"},
		{"unknown phase", []ParsedEvent{
			{Name: "a", Ph: "Q", Ts: 1, Pid: 0, Tid: 1},
		}, "unknown phase"},
	}
	for _, tc := range cases {
		err := ValidateTrace(tc.evs)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want containing %q", tc.name, err, tc.want)
		}
	}
}

func TestFlightRecorderRingWrap(t *testing.T) {
	r := NewFlightRecorder(2, 4)
	for i := 0; i < 10; i++ {
		r.Note(uint64(i), i%2, CompHomeDir, "GETS", uint64(i))
	}
	d := r.Dump()
	if len(d) != 8 {
		t.Fatalf("dump has %d events, want 8 (2 sockets x ring of 4)", len(d))
	}
	// Oldest entries (cycles 0 and 1) were overwritten.
	for _, ev := range d {
		if ev.Cycle < 2 {
			t.Errorf("overwritten event survived: %+v", ev)
		}
	}
	// Dump is globally ordered by (cycle, seq).
	for i := 1; i < len(d); i++ {
		if d[i].Cycle < d[i-1].Cycle ||
			(d[i].Cycle == d[i-1].Cycle && d[i].Seq < d[i-1].Seq) {
			t.Errorf("dump out of order at %d: %+v then %+v", i, d[i-1], d[i])
		}
	}
	// Two identical recorders dump identical slices.
	r2 := NewFlightRecorder(2, 4)
	for i := 0; i < 10; i++ {
		r2.Note(uint64(i), i%2, CompHomeDir, "GETS", uint64(i))
	}
	if !reflect.DeepEqual(d, r2.Dump()) {
		t.Error("identical recorders dumped different slices")
	}
}

func TestFlightRecorderSocketGrowth(t *testing.T) {
	r := NewFlightRecorder(1, 2)
	r.Note(1, 3, CompRAS, "socket-kill", 0) // socket beyond initial size
	d := r.Dump()
	if len(d) != 1 || d[0].Socket != 3 || d[0].Comp != "ras" {
		t.Errorf("dump = %+v, want one ras event at socket 3", d)
	}
}

func TestRegistryPrometheusFormat(t *testing.T) {
	reg := NewRegistry()
	var hits uint64 = 7
	reg.Counter("dve_test_hits_total", "test hits", func() float64 { return float64(hits) })
	reg.Gauge("dve_test_depth", "queue depth", func() float64 { return 3 })
	var h stats.Histogram
	h.Add(1)
	h.Add(3)
	h.Add(100)
	reg.Histogram("dve_test_latency", "latency", func() *stats.Histogram { return &h })

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# HELP dve_test_hits_total test hits",
		"# TYPE dve_test_hits_total counter",
		"dve_test_hits_total 7",
		"# TYPE dve_test_depth gauge",
		"dve_test_depth 3",
		"# TYPE dve_test_latency histogram",
		`dve_test_latency_bucket{le="+Inf"} 3`,
		"dve_test_latency_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
	// Histogram buckets must be cumulative and non-decreasing.
	last := -1
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "dve_test_latency_bucket") {
			continue
		}
		var v int
		if _, err := fmtSscanfTail(line, &v); err != nil {
			t.Fatalf("unparseable bucket line %q: %v", line, err)
		}
		if v < last {
			t.Errorf("bucket counts not cumulative: %q after %d", line, last)
		}
		last = v
	}
}

// fmtSscanfTail parses the trailing integer of a metrics line.
func fmtSscanfTail(line string, v *int) (int, error) {
	i := strings.LastIndexByte(line, ' ')
	n, err := json.Number(strings.TrimSpace(line[i+1:])).Int64()
	*v = int(n)
	return 1, err
}

func TestRegistryRejectsBadNames(t *testing.T) {
	for _, bad := range []string{"", "9starts_with_digit", "has-dash", "has space"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("name %q accepted, want panic", bad)
				}
			}()
			NewRegistry().Counter(bad, "", func() float64 { return 0 })
		}()
	}
	// Duplicates panic too.
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration accepted, want panic")
		}
	}()
	r := NewRegistry()
	r.Counter("dup", "", func() float64 { return 0 })
	r.Counter("dup", "", func() float64 { return 0 })
}

func TestCountersSnapshotDeterministic(t *testing.T) {
	c := &stats.Counters{Ops: 100, Reads: 60, Writes: 40, LLCMisses: 5}
	c.MissLatency.Add(120)
	s1 := CountersSnapshot(c)
	s2 := CountersSnapshot(c)
	if !reflect.DeepEqual(s1, s2) {
		t.Error("two snapshots of the same counters differ")
	}
	if v, ok := sample(s1, "dve_ops_total"); !ok || v != 100 {
		t.Errorf("dve_ops_total = %v,%v want 100,true", v, ok)
	}
	if v, ok := sample(s1, "dve_miss_latency_cycles_count"); !ok || v != 1 {
		t.Errorf("histogram count sample = %v,%v want 1,true", v, ok)
	}
	// The snapshot JSON round-trips (the result-cache envelope shape).
	b, err := json.Marshal(s1)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s1, back) {
		t.Error("snapshot does not JSON round-trip")
	}
}

func TestComponentString(t *testing.T) {
	if CompHomeDir.String() != "homedir" || CompRAS.String() != "ras" {
		t.Errorf("component names wrong: %s %s", CompHomeDir, CompRAS)
	}
	if Component(200).String() != "unknown" {
		t.Errorf("out-of-range component = %s", Component(200))
	}
}

func TestEngineDispatchSubsampling(t *testing.T) {
	tr := NewTracer(Options{TraceEvents: true, QueueDepthStrideCyc: 100})
	eng := sim.NewEngine()
	tr.Attach(eng)
	eng.OnDispatch = tr.EngineDispatch(0)
	for i := 0; i < 500; i++ {
		eng.At(sim.Cycle(i), func() {})
	}
	eng.Run()
	counters := 0
	for _, ev := range tr.events {
		if ev.ph == 'C' {
			counters++
		}
	}
	// 500 cycles at stride 100 -> 5 counter samples, not 500.
	if counters != 5 {
		t.Errorf("counter events = %d, want 5", counters)
	}
}

// sample returns the value of the named sample in s.
func sample(s Snapshot, name string) (float64, bool) {
	for i := range s {
		if s[i].Name == name {
			return s[i].Value, true
		}
	}
	return 0, false
}
