package dve

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"dve/internal/telemetry"
	"dve/internal/topology"
)

// runTraced runs a small deny workload with an optional tracer attached.
func runTraced(t *testing.T, tr *telemetry.Tracer) *Result {
	t.Helper()
	return runTracedProto(t, topology.ProtoDeny, tr)
}

// runTracedProto runs a small fft workload under protocol p with an
// optional tracer attached.
func runTracedProto(t *testing.T, p topology.Protocol, tr *telemetry.Tracer) *Result {
	t.Helper()
	rc := RunConfig{
		Cfg:        topology.Default(p),
		WarmupOps:  10_000,
		MeasureOps: 30_000,
		Telemetry:  tr,
	}
	res, err := Run(smallSpec("fft"), rc)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestTracingDoesNotPerturbStats pins the no-perturbation contract: a run
// with full tracing enabled produces byte-identical counters to the same
// run untraced. The tracer only observes — it never schedules events or
// reorders the simulation.
func TestTracingDoesNotPerturbStats(t *testing.T) {
	plain := runTraced(t, nil)
	tr := telemetry.NewTracer(telemetry.Options{TraceEvents: true, FlightRecorderLines: 256})
	traced := runTraced(t, tr)

	pb, err := json.Marshal(plain.Counters)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := json.Marshal(traced.Counters)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pb, tb) {
		t.Errorf("tracing perturbed the run:\nuntraced: %s\ntraced:   %s", pb, tb)
	}
	if plain.Cycles != traced.Cycles {
		t.Errorf("ROI cycles differ: untraced %d, traced %d", plain.Cycles, traced.Cycles)
	}
	if tr.Events() == 0 {
		t.Error("traced run emitted no events")
	}
}

// TestTracedRunEmitsValidTrace round-trips a real simulation's trace
// through the parser and validator: well-formed JSON, per-track monotone
// timestamps, every B matched by an E.
func TestTracedRunEmitsValidTrace(t *testing.T) {
	tr := telemetry.NewTracer(telemetry.Options{TraceEvents: true})
	runTraced(t, tr)

	var buf bytes.Buffer
	if err := tr.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	evs, err := telemetry.ParseTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := telemetry.ValidateTrace(evs); err != nil {
		t.Fatal(err)
	}
	// A real run exercises every pillar: spans (directory transactions),
	// complete events (DRAM/link), and instants (fills).
	phases := map[string]int{}
	for _, ev := range evs {
		phases[ev.Ph]++
	}
	for _, ph := range []string{"B", "E", "X", "i", "M"} {
		if phases[ph] == 0 {
			t.Errorf("trace has no %q events (got %v)", ph, phases)
		}
	}
	// Each socket's partition samples its own queue depth onto its own
	// counter track, so every pending_events track is monotone in one clock.
	depthTracks := map[[2]int]bool{}
	for _, ev := range evs {
		if ev.Ph == "C" && ev.Name == "pending_events" {
			depthTracks[[2]int{ev.Pid, ev.Tid}] = true
		}
	}
	perSocket := map[int]int{}
	for k := range depthTracks {
		perSocket[k[0]]++
	}
	for s := 0; s < 2; s++ {
		if perSocket[s] != 1 {
			t.Errorf("socket %d has %d pending_events tracks, want 1 (tracks %v)", s, perSocket[s], depthTracks)
		}
	}
	if tr.Dropped() > 0 {
		t.Logf("note: %d events dropped (lane exhaustion)", tr.Dropped())
	}
}

// TestDirectorySpansOnTheirTracks pins the spans cache.Sequencer opens for
// both directory flavours: a traced deny run and a traced allow run each
// carry matched GETS/GETX/PUTM spans on the home-directory tracks and
// LocalGETS/LocalGETX spans on the replica-directory tracks, and the whole
// trace validates.
func TestDirectorySpansOnTheirTracks(t *testing.T) {
	want := map[string][]string{
		"homedir":    {"GETS", "GETX", "PUTM"},
		"replicadir": {"LocalGETS", "LocalGETX"},
	}
	for _, p := range []topology.Protocol{topology.ProtoDeny, topology.ProtoAllow} {
		t.Run(p.String(), func(t *testing.T) {
			tr := telemetry.NewTracer(telemetry.Options{TraceEvents: true})
			runTracedProto(t, p, tr)
			var buf bytes.Buffer
			if err := tr.WriteTrace(&buf); err != nil {
				t.Fatal(err)
			}
			evs, err := telemetry.ParseTrace(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if err := telemetry.ValidateTrace(evs); err != nil {
				t.Fatal(err)
			}
			// Thread-name metadata names each (pid, tid) track
			// "<component>/lane<n>"; count B and E per component and span.
			comp := map[[2]int]string{}
			begins, ends := map[string]int{}, map[string]int{}
			for _, ev := range evs {
				k := [2]int{ev.Pid, ev.Tid}
				switch ev.Ph {
				case "M":
					if name, _ := ev.Args["name"].(string); ev.Name == "thread_name" {
						comp[k], _, _ = strings.Cut(name, "/")
					}
				case "B":
					begins[comp[k]+"/"+ev.Name]++
				case "E":
					ends[comp[k]+"/"+ev.Name]++
				}
			}
			for c, names := range want {
				for _, name := range names {
					key := c + "/" + name
					if begins[key] == 0 || begins[key] != ends[key] {
						t.Errorf("%s spans: %d B, %d E; want a matched, nonzero count", key, begins[key], ends[key])
					}
				}
			}
		})
	}
}

// TestResultCarriesMetricsSnapshot checks that every Run result includes
// the named-metrics view of its counters, ready for the result-cache
// envelope.
func TestResultCarriesMetricsSnapshot(t *testing.T) {
	res := runTraced(t, nil)
	if len(res.Metrics) == 0 {
		t.Fatal("result has no metrics snapshot")
	}
	v, ok := 0.0, false
	for _, s := range res.Metrics {
		if s.Name == "dve_ops_total" {
			v, ok = s.Value, true
		}
	}
	if !ok {
		t.Fatal("snapshot missing dve_ops_total")
	}
	if uint64(v) != res.Counters.Ops {
		t.Errorf("dve_ops_total = %v, counters say %d", v, res.Counters.Ops)
	}
}
