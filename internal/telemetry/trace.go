package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"

	"dve/internal/sim"
)

// traceEvent is one buffered Chrome trace event. Events are buffered in
// emission order (which, by the no-perturbation rule, is a pure function of
// the simulated run) and serialised by WriteTrace.
type traceEvent struct {
	name   string
	ph     byte
	ts     uint64
	dur    uint64
	hasDur bool
	pid    int
	tid    int
	argKey string
	argVal uint64
}

// trackKey packs (pid, tid) into the writer's dedup key.
func trackKey(pid, tid int) uint64 {
	return uint64(uint32(pid))<<32 | uint64(uint32(tid))
}

func (t *Tracer) emit(ev traceEvent) {
	k := trackKey(ev.pid, ev.tid)
	if !t.trackSeen[k] {
		t.trackSeen[k] = true
		t.trackOrder = append(t.trackOrder, k)
	}
	t.events = append(t.events, ev)
}

// closeDanglingSpans emits E events for every still-open span so the trace
// always has matched B/E pairs even when the run was cut off mid-transaction
// (RunUntil, socket kill). Lanes are walked in index order: deterministic.
func (t *Tracer) closeDanglingSpans() {
	for tr := range t.lanes {
		c := Component(tr / t.opts.Sockets)
		socket := tr % t.opts.Sockets
		now := uint64(t.now(socket))
		for lane := range t.lanes[tr] {
			ls := &t.lanes[tr][lane]
			if ls.busyUntil != openSpan {
				continue
			}
			t.emit(traceEvent{
				name: ls.name, ph: 'E', ts: now,
				pid: socket, tid: tidOf(c, lane),
			})
			ls.busyUntil = sim.Cycle(now)
			ls.name = ""
		}
	}
}

// wireEvent is the JSON shape of one trace record — a strict subset of the
// Chrome trace-event format that Perfetto accepts. Sim cycles map 1:1 to
// microseconds on the Perfetto timeline.
type wireEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   uint64         `json:"ts"`
	Dur  *uint64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// traceFile is the top-level JSON object.
type traceFile struct {
	TraceEvents     []wireEvent `json:"traceEvents"`
	DisplayTimeUnit string      `json:"displayTimeUnit,omitempty"`
}

// writeTraceFile serialises a trace document — the one encoder both the
// Tracer and the TraceBuilder write through.
func writeTraceFile(w io.Writer, f *traceFile) error {
	return json.NewEncoder(w).Encode(f)
}

// Clock domains name the timeline a trace's timestamps live on. A sim
// trace's microseconds are simulated cycles (1 cycle = 1 µs); a wall trace's
// microseconds are host time. Traces declare their domain in a clock_domain
// metadata record so tooling (and CI validation) can refuse to aggregate
// across domains.
const (
	DomainSim  = "sim"  // timestamps are sim.Engine cycles
	DomainWall = "wall" // timestamps are host microseconds
)

// domainMeta builds the clock_domain metadata record.
func domainMeta(domain string) wireEvent {
	return wireEvent{
		Name: "clock_domain", Ph: "M", Pid: 0, Tid: 0,
		Args: map[string]any{"domain": domain},
	}
}

// TraceDomain returns the clock domain a parsed trace declares, or "" when
// the trace predates domain stamping.
func TraceDomain(events []ParsedEvent) string {
	for i := range events {
		ev := &events[i]
		if ev.Ph == "M" && ev.Name == "clock_domain" {
			if d, ok := ev.Args["domain"].(string); ok {
				return d
			}
		}
	}
	return ""
}

// ValidateTraceDomain checks that the trace declares exactly the wanted
// clock domain — the fabric trace must say "wall", a simulator trace "sim".
func ValidateTraceDomain(events []ParsedEvent, want string) error {
	got := TraceDomain(events)
	if got == "" {
		return fmt.Errorf("trace declares no clock_domain metadata (want %q)", want)
	}
	if got != want {
		return fmt.Errorf("trace clock domain is %q, want %q", got, want)
	}
	return nil
}

// trackThreadName renders a tid back into a human-readable Perfetto thread
// name ("homedir/lane3", "llc/instant").
func trackThreadName(tid int) string {
	comp := Component(tid/1000 - 1)
	lane := tid % 1000
	if lane == instantLane {
		return comp.String() + "/instant"
	}
	return fmt.Sprintf("%s/lane%d", comp, lane)
}

// WriteTrace closes dangling spans and serialises the buffered events as
// Chrome trace-event JSON. Metadata (process/thread names) is emitted first
// in sorted track order, then the events in emission order; both orders are
// deterministic, so traces of identical runs are byte-identical.
func (t *Tracer) WriteTrace(w io.Writer) error {
	t.closeDanglingSpans()

	tracks := make([]uint64, len(t.trackOrder))
	copy(tracks, t.trackOrder)
	sort.Slice(tracks, func(i, j int) bool { return tracks[i] < tracks[j] })

	out := traceFile{DisplayTimeUnit: "ms"}
	out.TraceEvents = append(out.TraceEvents, domainMeta(DomainSim))
	lastPid := -1
	for _, k := range tracks {
		pid := int(k >> 32)
		tid := int(uint32(k))
		if pid != lastPid {
			lastPid = pid
			out.TraceEvents = append(out.TraceEvents, wireEvent{
				Name: "process_name", Ph: "M", Pid: pid, Tid: 0,
				Args: map[string]any{"name": fmt.Sprintf("socket%d", pid)},
			})
		}
		out.TraceEvents = append(out.TraceEvents, wireEvent{
			Name: "thread_name", Ph: "M", Pid: pid, Tid: tid,
			Args: map[string]any{"name": trackThreadName(tid)},
		})
	}

	for i := range t.events {
		ev := &t.events[i]
		we := wireEvent{
			Name: ev.name, Ph: string(ev.ph), Ts: ev.ts,
			Pid: ev.pid, Tid: ev.tid,
		}
		if ev.hasDur {
			d := ev.dur
			we.Dur = &d
		}
		if ev.argKey != "" {
			we.Args = map[string]any{ev.argKey: ev.argVal}
		}
		out.TraceEvents = append(out.TraceEvents, we)
	}

	return writeTraceFile(w, &out)
}

// WriteTraceFile writes the trace to path (the dvesim -trace-events sink).
func (t *Tracer) WriteTraceFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.WriteTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ParsedEvent is one record read back from a trace file.
type ParsedEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   uint64         `json:"ts"`
	Dur  uint64         `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// ParseTrace reads a Chrome trace-event JSON document.
func ParseTrace(r io.Reader) ([]ParsedEvent, error) {
	var f struct {
		TraceEvents []ParsedEvent `json:"traceEvents"`
	}
	dec := json.NewDecoder(r)
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("telemetry: parse trace: %w", err)
	}
	if f.TraceEvents == nil {
		return nil, fmt.Errorf("telemetry: trace has no traceEvents array")
	}
	return f.TraceEvents, nil
}

// trackCheck is ValidateTrace's per-(pid,tid) state.
type trackCheck struct {
	lastTs uint64
	sawTs  bool
	// open is the stack of unclosed B event names.
	open []string
}

// ValidateTrace checks the structural contract WriteTrace promises:
// every record has a known phase; timestamps are monotone non-decreasing
// per (pid, tid) track; and every B has a matching E (same track, same
// name, properly nested). Returns the first violation in event order.
func ValidateTrace(events []ParsedEvent) error {
	state := make(map[uint64]*trackCheck)
	var order []uint64
	for i := range events {
		ev := &events[i]
		switch ev.Ph {
		case "M":
			continue // metadata carries no timeline position
		case "B", "E", "X", "i", "C":
		default:
			return fmt.Errorf("event %d (%q): unknown phase %q", i, ev.Name, ev.Ph)
		}
		k := trackKey(ev.Pid, ev.Tid)
		tc := state[k]
		if tc == nil {
			tc = &trackCheck{}
			state[k] = tc
			order = append(order, k)
		}
		if tc.sawTs && ev.Ts < tc.lastTs {
			return fmt.Errorf("event %d (%q): ts %d < previous ts %d on track pid=%d tid=%d",
				i, ev.Name, ev.Ts, tc.lastTs, ev.Pid, ev.Tid)
		}
		tc.lastTs, tc.sawTs = ev.Ts, true
		switch ev.Ph {
		case "B":
			tc.open = append(tc.open, ev.Name)
		case "E":
			if len(tc.open) == 0 {
				return fmt.Errorf("event %d (%q): E without open B on track pid=%d tid=%d",
					i, ev.Name, ev.Pid, ev.Tid)
			}
			top := tc.open[len(tc.open)-1]
			if top != ev.Name {
				return fmt.Errorf("event %d: E %q does not match open B %q on track pid=%d tid=%d",
					i, ev.Name, top, ev.Pid, ev.Tid)
			}
			tc.open = tc.open[:len(tc.open)-1]
		}
	}
	for _, k := range order {
		if tc := state[k]; len(tc.open) > 0 {
			return fmt.Errorf("track pid=%d tid=%d: %d unclosed B event(s), first %q",
				int(k>>32), int(uint32(k)), len(tc.open), tc.open[0])
		}
	}
	return nil
}
