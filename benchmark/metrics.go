package main

import (
	"encoding/json"
	"fmt"
	"io"
)

// metricDef names one reported metric. BENCHMARK.json lists the same names
// and units (the drift test keeps the two in step) and adds each
// end-to-end metric's regression bound.
type metricDef struct {
	name, unit, better string
}

// endToEnd metrics are host-side costs a simulator user sees, measured with
// tracing off (-trace 0).
var endToEnd = []metricDef{
	{"sim_ops_per_s", "ops/s", "higher"},
	{"setup_s", "s", "lower"},
	{"allocs_per_op", "allocs/op", "lower"},
	{"bytes_per_op", "B/op", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer metrics come from the traced pass (-trace 1): CPU-profile shares
// per module, the ladder's per-call costs, the simulated per-layer
// statistics, the attribution and the trace's own health.
var perLayer = []metricDef{
	{"sim.self_frac", "fraction", "lower"},
	{"workload.self_frac", "fraction", "lower"},
	{"cache.self_frac", "fraction", "lower"},
	{"coherence.self_frac", "fraction", "lower"},
	{"dve.self_frac", "fraction", "lower"},
	{"mem.self_frac", "fraction", "lower"},
	{"noc.self_frac", "fraction", "lower"},
	{"support.self_frac", "fraction", "lower"},
	{"go.map_frac", "fraction", "lower"},
	{"go.alloc_frac", "fraction", "lower"},
	{"go.other_frac", "fraction", "lower"},

	{"sim.dispatch_ns", "ns/event", "lower"},
	{"sim.dispatch_allocs", "allocs/event", "lower"},
	{"sim.epochs_per_kop", "epochs/kop", "lower"},
	{"sim.barrier_stall_ratio", "ratio", "lower"},

	{"workload.next_ns", "ns/op", "lower"},
	{"workload.next_allocs", "allocs/op", "lower"},

	{"cache.l1_ns", "ns/access", "lower"},
	{"cache.llc_ns", "ns/access", "lower"},
	{"cache.replicadir_ns", "ns/access", "lower"},
	{"cache.replicadir_allocs", "allocs/access", "lower"},
	{"cache.l1_hit_ratio", "ratio", "higher"},
	{"cache.llc_hit_ratio", "ratio", "higher"},
	{"cache.llc_misses_per_op", "misses/op", "lower"},

	{"dve.replicadir_lookups_per_op", "lookups/op", "lower"},
	{"dve.replicadir_hit_ratio", "ratio", "higher"},
	{"dve.replica_read_ratio", "ratio", "higher"},
	{"dve.spec_squash_ratio", "ratio", "lower"},
	{"dve.dual_writebacks_per_kop", "writebacks/kop", "lower"},

	{"coherence.miss_latency_p50_cyc", "cycles", "lower"},
	{"coherence.miss_latency_p99_cyc", "cycles", "lower"},

	{"mem.access_ns", "ns/access", "lower"},
	{"mem.access_allocs", "allocs/access", "lower"},
	{"mem.accesses_per_op", "accesses/op", "lower"},
	{"mem.row_hit_ratio", "ratio", "higher"},
	{"mem.busy_cycles_per_access", "cycles/access", "lower"},

	{"noc.send_ns", "ns/msg", "lower"},
	{"noc.send_allocs", "allocs/msg", "lower"},
	{"noc.msgs_per_op", "msgs/op", "lower"},
	{"noc.bytes_per_op", "B/op", "lower"},

	{"attrib.predicted_ms", "ms", "lower"},
	{"attrib.unexplained_frac", "fraction", "lower"},

	{"trace.overhead_frac", "fraction", "lower"},
	{"trace.samples", "count", "higher"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result object printed as the last line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metricSet collects the values of one definition list.
type metricSet struct {
	defs   []metricDef
	values map[string]float64
}

func newMetricSet(defs []metricDef) *metricSet {
	return &metricSet{defs: defs, values: map[string]float64{}}
}

// set records a value. Naming a metric outside the list is a bug.
func (m *metricSet) set(name string, v float64) {
	for _, d := range m.defs {
		if d.name == name {
			m.values[name] = v
			return
		}
	}
	panic(fmt.Sprintf("benchmark: metric %q is not defined", name))
}

// metrics returns every defined metric with its unit; a metric the harness
// forgot to set is a bug.
func (m *metricSet) metrics() map[string]metric {
	out := make(map[string]metric, len(m.defs))
	for _, d := range m.defs {
		v, ok := m.values[d.name]
		if !ok {
			panic(fmt.Sprintf("benchmark: metric %q was not measured", d.name))
		}
		out[d.name] = metric{Value: v, Unit: d.unit}
	}
	return out
}

// print writes one "name value unit" line per metric, in definition order.
func (m *metricSet) print(w io.Writer) {
	ms := m.metrics()
	for _, d := range m.defs {
		fmt.Fprintf(w, "  %-32s %14.6g %s\n", d.name, ms[d.name].Value, d.unit)
	}
}

// writeReport writes r as one JSON line.
func writeReport(w io.Writer, r report) error {
	b, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// ratio returns a/b, or 0 when b is 0 (a layer that saw no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
