package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dve/internal/telemetry"
)

// tiny returns a workload shrunk to a few thousand ops per cell.
func tiny(t *testing.T, name string) workloadDef {
	t.Helper()
	w, err := workloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	w.warmup, w.measure = 2_000, 5_000
	return w
}

// tinyPlan runs the fewest cells each pass allows.
var tinyPlan = plan{minCells: 2, setupReps: 2}

// runTiny runs one tiny benchmark and returns its output and the result
// object parsed from the last line, where a caller of the command reads it.
func runTiny(t *testing.T, name string, trace int, dir string) (string, report) {
	t.Helper()
	var out bytes.Buffer
	r, err := bench(tiny(t, name), options{seed: 3, trace: trace, traceDir: dir}, tinyPlan, &out)
	if err != nil {
		t.Fatalf("%s trace=%d: %v\n%s", name, trace, err, out.String())
	}
	if err := writeReport(&out, r); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var got report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
		t.Fatalf("last line is not the result object: %v", err)
	}
	return out.String(), got
}

// Every workload runs both passes, passes its correctness gate, and prints
// exactly the defined metrics with their units.
func TestSmokeAllWorkloads(t *testing.T) {
	dir := t.TempDir()
	for _, w := range workloads {
		for trace, defs := range [][]metricDef{endToEnd, perLayer} {
			out, r := runTiny(t, w.name, trace, dir)
			if !r.Correct || r.Failed != 0 || r.Attempted < tinyPlan.minCells {
				t.Errorf("%s trace=%d: correct=%v failed=%d attempted=%d\n%s",
					w.name, trace, r.Correct, r.Failed, r.Attempted, out)
			}
			if len(r.Metrics) != len(defs) {
				t.Errorf("%s trace=%d: %d metrics, want %d", w.name, trace, len(r.Metrics), len(defs))
			}
			for _, d := range defs {
				if m, ok := r.Metrics[d.name]; !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%d: metric %s = %+v, want unit %s", w.name, trace, d.name, m, d.unit)
				}
			}
		}
	}
}

// The traced pass separates the layers as intended even at tiny sizes.
func TestTracedLayerSeparation(t *testing.T) {
	dir := t.TempDir()
	_, lbm := runTiny(t, "lbm-baseline", 1, dir)
	if v := lbm.Metrics["dve.replicadir_lookups_per_op"].Value; v != 0 {
		t.Errorf("lbm-baseline replica-directory lookups/op = %v, want 0", v)
	}
	_, canneal := runTiny(t, "canneal-dynamic", 1, dir)
	if v := canneal.Metrics["sim.epochs_per_kop"].Value; v != 0 {
		t.Errorf("canneal-dynamic epochs/kop = %v, want 0 on the legacy engine", v)
	}
	_, fft := runTiny(t, "fft-deny-2w", 1, dir)
	if v := fft.Metrics["sim.epochs_per_kop"].Value; v == 0 {
		t.Error("fft-deny-2w ran no parallel-engine epochs")
	}
}

// spans.json is a valid wall-domain trace whose spans nest workload ->
// pass -> cell or ladder step.
func TestSpansAreAWallTrace(t *testing.T) {
	dir := t.TempDir()
	runTiny(t, "fft-deny", 1, dir)
	f, err := os.Open(filepath.Join(dir, "fft-deny.spans.json"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, err := telemetry.ParseTrace(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := telemetry.ValidateTraceDomain(events, telemetry.DomainWall); err != nil {
		t.Fatal(err)
	}
	if err := telemetry.ValidateTrace(events); err != nil {
		t.Fatal(err)
	}
	parents := map[float64]string{0: ""}
	begun := map[string]bool{}
	for _, ev := range events {
		if ev.Ph != "B" {
			continue
		}
		id, parent := ev.Args["id"].(float64), ev.Args["parent"].(float64)
		if _, ok := parents[parent]; !ok {
			t.Errorf("span %q opens under unknown parent %v", ev.Name, parent)
		}
		parents[id] = ev.Name
		begun[parents[parent]+">"+ev.Name] = true
	}
	for _, want := range []string{">fft-deny", "fft-deny>untraced", "untraced>cell 0",
		"fft-deny>profiled", "fft-deny>ladder", "ladder>cache.replicadir", "ladder>noc.send"} {
		if !begun[want] {
			t.Errorf("no span %s", want)
		}
	}
}

// BENCHMARK.json names exactly the workloads and metrics the harness has,
// with the same units and directions.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []jsonMetric `json:"end_to_end"`
		PerLayer  []jsonMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the harness %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if i < len(workloads) && w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the harness", i, w.Name, workloads[i].name)
		}
	}
	for _, tc := range []struct {
		section string
		got     []jsonMetric
		defs    []metricDef
		bounded bool
	}{
		{"end_to_end", doc.EndToEnd, endToEnd, true},
		{"per_layer", doc.PerLayer, perLayer, false},
	} {
		if len(tc.got) != len(tc.defs) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the harness", tc.section, len(tc.got), len(tc.defs))
			continue
		}
		for i, d := range tc.defs {
			g := tc.got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s[%d]: BENCHMARK.json has %s %s %s, the harness %s %s %s",
					tc.section, i, g.Name, g.Unit, g.Better, d.name, d.unit, d.better)
			}
			if (g.Bound != nil) != tc.bounded {
				t.Errorf("%s: %s bound present=%v, want %v", tc.section, g.Name, g.Bound != nil, tc.bounded)
			}
		}
	}
}
