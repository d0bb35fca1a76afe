package telemetry

import (
	"fmt"
	"io"

	"dve/internal/stats"
)

// The metrics registry is a *named view* over the simulator's counter
// fields: registration binds a metric name to a closure reading the live
// value, so one registry built around a stats.Counters (or a serve.Server)
// can be snapshotted repeatedly without copying state around. Names follow
// Prometheus conventions ([a-zA-Z_][a-zA-Z0-9_]*, unit-suffixed).

type metricKind uint8

const (
	counterKind metricKind = iota
	gaugeKind
	histogramKind
	labeledGaugeKind
)

// kindNames is indexed by metricKind (array lookup keeps statecover quiet).
// A labeled gauge is still TYPE gauge on the wire — the label rides on each
// sample line, not on the type.
var kindNames = [4]string{"counter", "gauge", "histogram", "gauge"}

// LabeledValue is one sample of a labeled gauge: the per-node breakdown of
// a fleet metric (queue depth by worker, inflight by node).
type LabeledValue struct {
	Label string
	Value float64
}

type metric struct {
	name    string
	help    string
	kind    metricKind
	val     func() float64          // counterKind, gaugeKind
	hist    func() *stats.Histogram // histogramKind
	label   string                  // labeledGaugeKind: the label name
	labeled func() []LabeledValue   // labeledGaugeKind
}

// Registry holds named metrics in registration order (which is therefore
// the exposition and snapshot order — deterministic by construction).
type Registry struct {
	metrics []metric
	names   map[string]bool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{names: make(map[string]bool)}
}

func validName(name string) bool {
	if name == "" {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c == '_', c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func (r *Registry) add(m metric) {
	if !validName(m.name) {
		panic("telemetry: invalid metric name " + m.name)
	}
	if r.names[m.name] {
		panic("telemetry: duplicate metric " + m.name)
	}
	r.names[m.name] = true
	r.metrics = append(r.metrics, m)
}

// Counter registers a monotonically non-decreasing metric.
func (r *Registry) Counter(name, help string, fn func() float64) {
	r.add(metric{name: name, help: help, kind: counterKind, val: fn})
}

// Gauge registers a metric that can move both ways.
func (r *Registry) Gauge(name, help string, fn func() float64) {
	r.add(metric{name: name, help: help, kind: gaugeKind, val: fn})
}

// Histogram registers a stats.Histogram-backed distribution. fn may return
// nil (exposed as an empty histogram).
func (r *Registry) Histogram(name, help string, fn func() *stats.Histogram) {
	r.add(metric{name: name, help: help, kind: histogramKind, hist: fn})
}

// LabeledGauge registers a gauge broken down by one label (per-node queue
// depth, per-worker inflight). fn returns the current sample set; its order
// is the exposition order, so callers return sorted slices for
// deterministic scrapes.
func (r *Registry) LabeledGauge(name, help, label string, fn func() []LabeledValue) {
	if !validName(label) {
		panic("telemetry: invalid label name " + label)
	}
	r.add(metric{name: name, help: help, kind: labeledGaugeKind, label: label, labeled: fn})
}

// escapeLabelValue applies Prometheus label-value escaping (backslash,
// double quote, newline).
func escapeLabelValue(v string) string {
	out := make([]byte, 0, len(v))
	for i := 0; i < len(v); i++ {
		switch v[i] {
		case '\\':
			out = append(out, '\\', '\\')
		case '"':
			out = append(out, '\\', '"')
		case '\n':
			out = append(out, '\\', 'n')
		default:
			out = append(out, v[i])
		}
	}
	return string(out)
}

// WritePrometheus renders the registry in Prometheus text exposition
// format (version 0.0.4). Histograms expose cumulative power-of-two
// buckets derived from stats.Histogram.Buckets().
func (r *Registry) WritePrometheus(w io.Writer) error {
	for i := range r.metrics {
		m := &r.metrics[i]
		if m.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", m.name, m.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", m.name, kindNames[m.kind]); err != nil {
			return err
		}
		if m.kind == labeledGaugeKind {
			for _, lv := range m.labeled() {
				if _, err := fmt.Fprintf(w, "%s{%s=\"%s\"} %g\n",
					m.name, m.label, escapeLabelValue(lv.Label), lv.Value); err != nil {
					return err
				}
			}
			continue
		}
		if m.kind != histogramKind {
			if _, err := fmt.Fprintf(w, "%s %g\n", m.name, m.val()); err != nil {
				return err
			}
			continue
		}
		h := m.hist()
		var count, cum uint64
		var mean float64
		if h != nil {
			count = h.Count()
			mean = h.Mean()
			for _, b := range h.Buckets() {
				cum += b[1]
				// Buckets are [2^i, 2^(i+1)) — the upper edge is the le label.
				le := b[0] * 2
				if b[0] == 0 {
					le = 1
				}
				if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", m.name, le, cum); err != nil {
					return err
				}
			}
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", m.name, count); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum %g\n%s_count %d\n", m.name, mean*float64(count), m.name, count); err != nil {
			return err
		}
	}
	return nil
}

// Sample is one snapshotted metric value.
type Sample struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// Snapshot is a point-in-time reading of a whole registry, in registration
// order — the shape embedded in result-cache envelopes.
type Snapshot []Sample

// Snapshot reads every metric. Histograms flatten to _count, _mean, _p50,
// _p99 and _max samples (the aggregate the sweep tables already consume).
func (r *Registry) Snapshot() Snapshot {
	out := make(Snapshot, 0, len(r.metrics))
	for i := range r.metrics {
		m := &r.metrics[i]
		if m.kind == labeledGaugeKind {
			for _, lv := range m.labeled() {
				out = append(out, Sample{
					Name:  fmt.Sprintf("%s{%s=%q}", m.name, m.label, lv.Label),
					Value: lv.Value,
				})
			}
			continue
		}
		if m.kind != histogramKind {
			out = append(out, Sample{Name: m.name, Value: m.val()})
			continue
		}
		h := m.hist()
		if h == nil {
			out = append(out, Sample{Name: m.name + "_count"})
			continue
		}
		out = append(out,
			Sample{Name: m.name + "_count", Value: float64(h.Count())},
			Sample{Name: m.name + "_mean", Value: h.Mean()},
			Sample{Name: m.name + "_p50", Value: float64(h.Percentile(50))},
			Sample{Name: m.name + "_p99", Value: float64(h.Percentile(99))},
			Sample{Name: m.name + "_max", Value: float64(h.Max())},
		)
	}
	return out
}

// CountersRegistry builds the standard named view over a run's
// stats.Counters. The closures read c live, so the registry can be built
// before the run and snapshotted after it.
func CountersRegistry(c *stats.Counters) *Registry {
	r := NewRegistry()
	u := func(p *uint64) func() float64 { return func() float64 { return float64(*p) } }

	r.Counter("dve_cycles_total", "simulated cycles in the measured ROI", u(&c.Cycles))
	r.Counter("dve_ops_total", "completed memory operations", u(&c.Ops))
	r.Counter("dve_reads_total", "read operations", u(&c.Reads))
	r.Counter("dve_writes_total", "write operations", u(&c.Writes))
	r.Counter("dve_l1_hits_total", "L1 hits", u(&c.L1Hits))
	r.Counter("dve_l1_misses_total", "L1 misses", u(&c.L1Misses))
	r.Counter("dve_llc_hits_total", "LLC hits", u(&c.LLCHits))
	r.Counter("dve_llc_misses_total", "LLC misses", u(&c.LLCMisses))
	r.Counter("dve_link_msgs_total", "inter-socket link messages", u(&c.LinkMsgs))
	r.Counter("dve_link_bytes_total", "inter-socket link bytes", u(&c.LinkBytes))
	r.Counter("dve_replica_dir_hits_total", "replica directory hits", u(&c.ReplicaDirHits))
	r.Counter("dve_replica_dir_misses_total", "replica directory misses", u(&c.ReplicaDirMisses))
	r.Counter("dve_replica_reads_total", "reads served by the replica copy", u(&c.ReplicaReads))
	r.Counter("dve_home_reads_total", "reads served by the home copy", u(&c.HomeReads))
	r.Counter("dve_spec_issued_total", "speculative home fetches issued", u(&c.SpecIssued))
	r.Counter("dve_spec_squashed_total", "speculative home fetches squashed", u(&c.SpecSquashed))
	r.Counter("dve_dual_writebacks_total", "dual writebacks (home + replica)", u(&c.DualWritebacks))
	r.Counter("dve_dram_reads_total", "DRAM read accesses", u(&c.DRAMReads))
	r.Counter("dve_dram_writes_total", "DRAM write accesses", u(&c.DRAMWrites))
	r.Counter("dve_dram_row_hits_total", "DRAM row-buffer hits", u(&c.RowHits))
	r.Counter("dve_dram_row_misses_total", "DRAM row-buffer misses", u(&c.RowMisses))
	r.Counter("dve_dram_busy_cycles_total", "cycles a DRAM channel was busy", u(&c.DRAMBusyCycles))
	r.Gauge("dve_dram_channels", "DRAM channels modeled",
		func() float64 { return float64(c.DRAMChannels) })
	r.Counter("dve_mem_latency_cycles_total", "summed end-to-end memory latency", u(&c.MemLatencySum))
	r.Counter("dve_mem_accesses_total", "memory accesses in the latency sum", u(&c.MemCount))
	r.Counter("dve_corrected_errors_total", "errors corrected in place", u(&c.CorrectedErrors))
	r.Counter("dve_detected_uncorrect_total", "detected-uncorrectable errors (DUE)", u(&c.DetectedUncorrect))
	r.Counter("dve_recoveries_total", "reads recovered via the replica", u(&c.Recoveries))
	r.Gauge("dve_degraded_lines", "lines serving from a single copy",
		func() float64 { return float64(c.DegradedLines) })
	r.Counter("dve_retried_reads_total", "reads retried after a detection", u(&c.RetriedReads))
	r.Counter("dve_retry_successes_total", "retries that cleared the error", u(&c.RetrySuccesses))
	r.Counter("dve_repair_writes_total", "repair writebacks", u(&c.RepairWrites))
	r.Counter("dve_repair_verify_fails_total", "repairs whose verify re-read failed", u(&c.RepairVerifyFails))
	r.Gauge("dve_pages_retired", "pages retired from service",
		func() float64 { return float64(c.PagesRetired) })
	r.Counter("dve_degraded_reads_total", "reads served while degraded", u(&c.DegradedReads))
	r.Counter("dve_socket_kills_total", "memory-controller kill events", u(&c.SocketKills))
	r.Counter("dve_demoted_lines_total", "lines demoted out of replication", u(&c.DemotedLines))
	r.Counter("dve_silent_corruptions_total", "reads that consumed corrupt data undetected", u(&c.SilentCorruptions))
	r.Counter("dve_hammer_crossings_total", "rows whose activation count crossed the hammer threshold", u(&c.HammerCrossings))
	r.Counter("dve_hammer_flips_total", "bitflips injected into hammered victim rows", u(&c.HammerFlips))
	r.Counter("dve_hammer_detected_total", "hammer flips first detected by a read or scrub", u(&c.HammerDetected))
	r.Counter("dve_hammer_detect_latency_cycles_total", "summed inject-to-first-detect cycles", u(&c.HammerDetectLatency))
	r.Counter("dve_hammer_corrupt_reads_total", "detected-uncorrectable reads of hammer-flipped lines", u(&c.HammerCorruptReads))
	r.Counter("dve_hammer_repairs_total", "hammer flips healed by a verified repair", u(&c.HammerRepairs))
	r.Counter("dve_epochs_allow_total", "epochs spent in allow mode", u(&c.EpochsAllow))
	r.Counter("dve_epochs_deny_total", "epochs spent in deny mode", u(&c.EpochsDeny))
	r.Counter("sim_epochs_total", "parallel-engine lookahead windows executed", u(&c.EngineEpochs))
	r.Counter("sim_barrier_stalls_total", "partition-epochs idle at the barrier (load-imbalance signal)", u(&c.EngineBarrierStalls))
	r.Counter("dve_trace_dropped_total", "trace events discarded by span-lane exhaustion (nonzero means the trace is a sample)", u(&c.TraceDropped))
	r.Counter("dve_flight_dumps_total", "flight-recorder dumps taken (each marks an invariant violation or socket-kill report)", u(&c.FlightDumps))
	r.Histogram("dve_miss_latency_cycles", "LLC miss latency distribution",
		func() *stats.Histogram { return &c.MissLatency })
	return r
}

// CountersSnapshot is the one-shot form: the named view of c right now.
func CountersSnapshot(c *stats.Counters) Snapshot {
	return CountersRegistry(c).Snapshot()
}
