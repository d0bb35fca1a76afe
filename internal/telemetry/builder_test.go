package telemetry

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"dve/internal/stats"
)

func renderBuilder(t *testing.T, b *TraceBuilder) []ParsedEvent {
	t.Helper()
	var buf bytes.Buffer
	if err := b.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	evs, err := ParseTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return evs
}

func TestBuilderRoundTripAndDomain(t *testing.T) {
	b := NewTraceBuilder(DomainWall, 0)
	b.ProcessName(0, "fabric")
	b.ThreadName(0, 1, "queue")
	b.ThreadName(0, 100, "worker-a")

	b.Instant(0, 1, "enqueued", 10, map[string]any{"cell": "s1/c0"})
	b.Begin(0, 100, "s1/c0", 20, map[string]any{"worker": "a"})
	b.End(0, 100, 50, nil)

	evs := renderBuilder(t, b)
	if err := ValidateTrace(evs); err != nil {
		t.Fatalf("builder emitted invalid trace: %v", err)
	}
	if err := ValidateTraceDomain(evs, DomainWall); err != nil {
		t.Fatal(err)
	}
	if got := TraceDomain(evs); got != "wall" {
		t.Errorf("TraceDomain = %q, want wall", got)
	}
	var b1, e1 *ParsedEvent
	for i := range evs {
		switch evs[i].Ph {
		case "B":
			b1 = &evs[i]
		case "E":
			e1 = &evs[i]
		}
	}
	if b1 == nil || e1 == nil || b1.Name != "s1/c0" || e1.Name != "s1/c0" {
		t.Fatalf("span not round-tripped: B=%+v E=%+v", b1, e1)
	}
	if b1.Ts != 20 || e1.Ts != 50 {
		t.Errorf("span timestamps %d..%d, want 20..50", b1.Ts, e1.Ts)
	}
}

// The tracer's own WriteTrace must now declare the sim domain, so domain
// validation can tell fabric traces and simulator traces apart.
func TestTracerDeclaresSimDomain(t *testing.T) {
	tr := NewTracer(Options{TraceEvents: true})
	tr.Point(CompLLC, 0, "fill", 1)
	var buf bytes.Buffer
	if err := tr.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	evs, err := ParseTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateTraceDomain(evs, DomainSim); err != nil {
		t.Error(err)
	}
	if err := ValidateTraceDomain(evs, DomainWall); err == nil {
		t.Error("sim trace accepted as wall domain")
	}
}

func TestBuilderClampsRegressingTimestamps(t *testing.T) {
	b := NewTraceBuilder(DomainWall, 0)
	b.Instant(0, 1, "a", 100, nil)
	b.Instant(0, 1, "b", 40, nil) // wall clock jitter: must clamp, not regress
	b.Begin(0, 1, "span", 30, nil)
	b.End(0, 1, 20, nil)
	evs := renderBuilder(t, b)
	if err := ValidateTrace(evs); err != nil {
		t.Fatalf("clamping failed, trace invalid: %v", err)
	}
}

func TestBuilderClosesOpenSpansInOutputOnly(t *testing.T) {
	b := NewTraceBuilder(DomainWall, 0)
	b.Begin(0, 7, "outer", 1, nil)
	b.Begin(0, 7, "inner", 2, nil)

	evs := renderBuilder(t, b)
	if err := ValidateTrace(evs); err != nil {
		t.Fatalf("open spans not closed in output: %v", err)
	}
	// The builder itself still has both spans open: ending them later must
	// produce a valid trace again, not unmatched E records.
	b.End(0, 7, 5, nil)
	b.End(0, 7, 6, nil)
	if b.Dropped() != 0 {
		t.Fatalf("ends after WriteTrace counted as drops: %d", b.Dropped())
	}
	evs = renderBuilder(t, b)
	if err := ValidateTrace(evs); err != nil {
		t.Fatalf("second render invalid: %v", err)
	}
}

func TestBuilderUnmatchedEndCountsAsDrop(t *testing.T) {
	b := NewTraceBuilder(DomainWall, 0)
	b.End(0, 1, 5, nil)
	if got := b.Dropped(); got != 1 {
		t.Errorf("Dropped = %d, want 1", got)
	}
	if b.Events() != 0 {
		t.Errorf("unmatched End buffered an event")
	}
}

func TestBuilderEventCap(t *testing.T) {
	b := NewTraceBuilder(DomainWall, 4)
	for i := 0; i < 10; i++ {
		b.Instant(0, 1, "x", uint64(i), nil)
	}
	if b.Events() != 4 {
		t.Errorf("Events = %d, want 4 (capped)", b.Events())
	}
	if b.Dropped() != 6 {
		t.Errorf("Dropped = %d, want 6", b.Dropped())
	}
	// B admitted at cap-1 must still get its E past the cap.
	b2 := NewTraceBuilder(DomainWall, 1)
	b2.Begin(0, 1, "span", 1, nil)
	b2.End(0, 1, 2, nil)
	evs := renderBuilder(t, b2)
	if err := ValidateTrace(evs); err != nil {
		t.Errorf("capped builder trace invalid: %v", err)
	}
}

// TestBuilderConcurrent exercises the mutex under -race: handlers and
// worker goroutines hammer one builder.
func TestBuilderConcurrent(t *testing.T) {
	b := NewTraceBuilder(DomainWall, 0)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tid := 100 + g
			for i := 0; i < 100; i++ {
				ts := uint64(i * 10)
				b.Begin(0, tid, "cell", ts, nil)
				b.Instant(0, 1, "transition", ts, nil)
				b.End(0, tid, ts+5, nil)
			}
		}(g)
	}
	wg.Wait()
	evs := renderBuilder(t, b)
	if err := ValidateTrace(evs); err != nil {
		t.Fatalf("concurrent build produced invalid trace: %v", err)
	}
	if err := ValidateTraceDomain(evs, DomainWall); err != nil {
		t.Fatal(err)
	}
}

func TestFlightRecorderDumpCount(t *testing.T) {
	r := NewFlightRecorder(1, 4)
	r.Note(1, 0, CompRAS, "detect", 9)
	if r.Dumps() != 0 {
		t.Fatalf("Dumps = %d before any dump", r.Dumps())
	}
	r.Dump()
	r.Dump()
	if r.Dumps() != 2 {
		t.Errorf("Dumps = %d, want 2", r.Dumps())
	}
}

func TestLabeledGaugeExposition(t *testing.T) {
	reg := NewRegistry()
	reg.LabeledGauge("dve_test_node_depth", "per-node depth", "node",
		func() []LabeledValue {
			return []LabeledValue{
				{Label: "w1", Value: 3},
				{Label: `odd"name\n`, Value: 1},
			}
		})
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE dve_test_node_depth gauge",
		`dve_test_node_depth{node="w1"} 3`,
		`dve_test_node_depth{node="odd\"name\\n"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("labeled gauge exposition missing %q:\n%s", want, out)
		}
	}
	if err := ValidateExposition(strings.NewReader(out)); err != nil {
		t.Errorf("labeled gauge exposition fails validation: %v", err)
	}
	snap := reg.Snapshot()
	if v, ok := sample(snap, `dve_test_node_depth{node="w1"}`); !ok || v != 3 {
		t.Errorf("snapshot sample = %v,%v want 3,true", v, ok)
	}
}

func TestValidateExposition(t *testing.T) {
	valid := strings.Join([]string{
		"# HELP up whether the target is up",
		"# TYPE up gauge",
		"up 1",
		"# TYPE lat histogram",
		`lat_bucket{le="1"} 3`,
		`lat_bucket{le="+Inf"} 4`,
		"lat_sum 9.5",
		"lat_count 4",
		`reqs_total{node="a",path="/run"} 17 1712345678`,
		"free_form:rule 2",
		"nanv NaN",
	}, "\n")
	if err := ValidateExposition(strings.NewReader(valid)); err != nil {
		t.Fatalf("valid exposition rejected: %v", err)
	}

	cases := map[string]string{
		"bad name":       "9up 1",
		"bad value":      "up one",
		"unquoted label": "up{node=a} 1",
		"unclosed label": `up{node="a 1`,
		"bad escape":     `up{node="a\q"} 1`,
		"bad type":       "# TYPE up wibble\nup 1",
		"duplicate type": "# TYPE up gauge\n# TYPE up gauge\nup 1",
		"interleaved":    "a 1\nb 2\na 3",
		"missing value":  "up",
		"empty":          "",
		"bad timestamp":  "up 1 not_a_ts",
	}
	for name, doc := range cases {
		if err := ValidateExposition(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: invalid exposition accepted:\n%s", name, doc)
		}
	}
}

// The real registries this repo serves must pass their own validator.
func TestOwnExpositionsValidate(t *testing.T) {
	var c stats.Counters
	c.Ops = 10
	c.MissLatency.Add(7)
	var buf bytes.Buffer
	if err := CountersRegistry(&c).WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if err := ValidateExposition(bytes.NewReader(buf.Bytes())); err != nil {
		t.Errorf("CountersRegistry exposition invalid: %v", err)
	}
}
