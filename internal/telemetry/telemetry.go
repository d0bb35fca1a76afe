// Package telemetry is the simulator's zero-cost-when-disabled
// instrumentation layer. It provides three pillars:
//
//   - transaction spans: typed probe points at the protocol hot spots
//     (LLC miss -> directory transaction -> grant -> fill -> release, plus
//     scrub/repair and RAS escalation steps), emitted as Chrome trace-event
//     JSON that opens directly in Perfetto with simulated time as the
//     timeline (1 cycle = 1 µs) and one track per socket and component;
//   - a metrics registry of named counters/gauges/histograms over
//     stats.Counters, snapshotted into result-cache envelopes and served by
//     dveserve in Prometheus text exposition format (registry.go);
//   - a flight recorder: a fixed-size ring of recent protocol events per
//     socket, dumped in deterministic order when a coherence invariant
//     fails or a campaign kills a socket (flight.go).
//
// # The no-perturbation rule
//
// A Tracer only ever *observes*: it never schedules events, never mutates
// protocol or queue state, and derives every timestamp from sim.Engine
// cycles. A run with tracing enabled is therefore byte-identical (same
// event order, same statistics) to the same run with tracing disabled —
// internal/dve pins this with a run-twice test. The only sanctioned
// wall-clock access anywhere near the simulation is stats.Stopwatch; the
// determinism analyzer (dvelint) enforces that for this package too.
//
// # Zero cost when disabled
//
// Every probe site guards on a nil Tracer pointer: disabled instrumentation
// is a single predictable branch and 0 allocs/op on the hot paths
// (sim.Engine dispatch, cache.Sequencer, noc.Link.SendFn, mem reads) —
// pinned by AllocsPerRun tests in those packages.
package telemetry

import (
	"dve/internal/sim"
)

// Component identifies the simulated unit a probe fires in; together with
// the socket it selects the trace track.
type Component uint8

const (
	CompEngine     Component = iota // event-core dispatch (queue-depth counter)
	CompLLC                         // last-level cache miss path
	CompHomeDir                     // home directory transactions
	CompReplicaDir                  // Dvé replica directory transactions
	CompMem                         // DRAM controller accesses
	CompLink                        // inter-socket link messages
	CompScrub                       // patrol scrubber
	CompRAS                         // recovery escalation ladder events
	compCount
)

// compNames is indexed by Component (array lookup, not a switch, so there is
// no enum-coverage hole for the statecover analyzer to guard).
var compNames = [compCount]string{
	"engine", "llc", "homedir", "replicadir", "mem", "link", "scrub", "ras",
}

// String returns the component's track name.
func (c Component) String() string {
	if int(c) < len(compNames) {
		return compNames[c]
	}
	return "unknown"
}

// SpanID identifies an open span returned by Begin. The zero value is a
// dropped span: End(0) is a no-op, so probe sites never need to branch on
// whether Begin succeeded.
type SpanID uint64

// Options configures a Tracer. The zero value records nothing (every sink
// disabled) but is still safe to wire through the system.
type Options struct {
	// TraceEvents buffers Chrome trace events for WriteTrace.
	TraceEvents bool
	// FlightRecorderLines sizes the per-socket ring of recent protocol
	// events (0 disables the recorder).
	FlightRecorderLines int
	// Sockets sizes the per-socket structures; 0 means 2 (the simulated
	// machine). Higher sockets observed at runtime grow the state lazily.
	Sockets int
	// QueueDepthStrideCyc subsamples the engine's pending-event counter
	// track: one counter event per stride of simulated time. 0 means 1024.
	QueueDepthStrideCyc uint64
}

// laneState tracks one virtual lane of a track. Directory transactions on
// different lines overlap freely at one component, but Chrome trace B/E
// events must nest per thread; lanes split each (component, socket) track
// into enough threads that concurrent spans never share one. busyUntil is
// the first cycle the lane may host a new event; an open span holds the
// lane with busyUntil == openSpan until End releases it.
type laneState struct {
	busyUntil sim.Cycle
	name      string // open span's name (repeated on the E event)
}

// openSpan marks a lane held by an un-Ended span.
const openSpan = sim.Cycle(^uint64(0))

// laneCap bounds lanes per track; allocation past it drops the span (the
// drop is counted, never silent — see Dropped).
const laneCap = 256

// instantLane is the pseudo-lane instant events and counters share; it is
// outside the span-lane range so instants never block span allocation.
const instantLane = laneCap + 1

// Tracer is the probe sink wired through the system (coherence.System,
// noc.Link, mem.Controller, cache.Sequencer). All methods derive time from
// the attached per-socket engines and never feed anything back into the
// simulation.
type Tracer struct {
	engs []*sim.Engine
	opts Options

	events []traceEvent
	// trackOrder lists pid<<32|tid keys in first-emission order; the writer
	// sorts a copy for metadata emission (no map iteration anywhere).
	trackOrder []uint64
	trackSeen  map[uint64]bool

	// lanes[trackIdx] holds the track's lane states; trackIdx is
	// comp*sockets + socket.
	lanes [][]laneState

	rec     *FlightRecorder
	dropped uint64

	// nextDepth[s] is the first cycle socket s's pending-event counter
	// track samples again (one stride cursor per socket).
	nextDepth []sim.Cycle
}

// NewTracer builds a tracer; Attach binds it to the run's engines (done by
// coherence.(*System).SetTracer).
func NewTracer(opts Options) *Tracer {
	if opts.Sockets <= 0 {
		opts.Sockets = 2
	}
	if opts.QueueDepthStrideCyc == 0 {
		opts.QueueDepthStrideCyc = 1024
	}
	t := &Tracer{
		opts:      opts,
		trackSeen: make(map[uint64]bool),
		lanes:     make([][]laneState, int(compCount)*opts.Sockets),
	}
	if opts.FlightRecorderLines > 0 {
		t.rec = NewFlightRecorder(opts.Sockets, opts.FlightRecorderLines)
	}
	return t
}

// Attach binds the tracer to the engines that provide simulated time:
// engs[s] is socket s's partition, and a probe on socket s reads that clock.
// A single engine serves every socket. Attaching to fresh engines mid-life
// would rewind the timeline, so a tracer must be used for exactly one run.
func (t *Tracer) Attach(engs ...*sim.Engine) { t.engs = engs }

// Recorder returns the flight recorder, or nil when disabled.
func (t *Tracer) Recorder() *FlightRecorder { return t.rec }

// Dropped returns how many events were discarded because a track exhausted
// its lanes (never silent: a nonzero value means the trace is a sample).
func (t *Tracer) Dropped() uint64 { return t.dropped }

// Events returns how many trace events have been buffered.
func (t *Tracer) Events() int { return len(t.events) }

// now returns socket's simulated clock (engs[0]'s when the socket has no
// engine of its own).
func (t *Tracer) now(socket int) sim.Cycle {
	if len(t.engs) == 0 {
		return 0
	}
	if socket < 0 || socket >= len(t.engs) {
		socket = 0
	}
	return t.engs[socket].Now()
}

// trackIdx maps (component, socket) to a lane-table index, growing the
// table if the run observes more sockets than configured.
func (t *Tracer) trackIdx(c Component, socket int) int {
	if socket < 0 {
		socket = 0
	}
	if socket >= t.opts.Sockets {
		grown := make([][]laneState, int(compCount)*(socket+1))
		for comp := 0; comp < int(compCount); comp++ {
			copy(grown[comp*(socket+1):], t.lanes[comp*t.opts.Sockets:(comp+1)*t.opts.Sockets])
		}
		t.lanes = grown
		t.opts.Sockets = socket + 1
	}
	return int(c)*t.opts.Sockets + socket
}

// allocLane finds the lowest lane of the track free at cycle from and
// reserves it until busyUntil. The scan is a deterministic slice walk, so
// lane assignment is a pure function of the event order. Returns -1 when
// the track is saturated.
func (t *Tracer) allocLane(tr int, from, busyUntil sim.Cycle) int {
	lanes := t.lanes[tr]
	for i := range lanes {
		if lanes[i].busyUntil <= from {
			lanes[i].busyUntil = busyUntil
			return i
		}
	}
	if len(lanes) >= laneCap {
		return -1
	}
	t.lanes[tr] = append(lanes, laneState{busyUntil: busyUntil})
	return len(lanes)
}

// tidOf packs a component and lane into a Chrome thread id. The socket is
// the process id, so tids only need to separate components and lanes.
func tidOf(c Component, lane int) int {
	return (int(c)+1)*1000 + lane
}

// Begin opens a span for a named transaction on a (component, socket)
// track and returns its id; End closes it. line rides in the event args so
// Perfetto can filter by cache line.
func (t *Tracer) Begin(c Component, socket int, name string, line uint64) SpanID {
	now := t.now(socket)
	if t.rec != nil {
		t.rec.Note(uint64(now), socket, c, name, line)
	}
	if !t.opts.TraceEvents {
		return 0
	}
	tr := t.trackIdx(c, socket)
	lane := t.allocLane(tr, now, openSpan)
	if lane < 0 {
		t.dropped++
		return 0
	}
	t.lanes[tr][lane].name = name
	t.emit(traceEvent{
		name: name, ph: 'B', ts: uint64(now),
		pid: socket, tid: tidOf(c, lane),
		argKey: "line", argVal: line,
	})
	return SpanID(uint64(tr+1)<<32 | uint64(lane+1))
}

// End closes a span opened by Begin. End(0) — a dropped or disabled span —
// is a no-op, so callers never branch.
func (t *Tracer) End(id SpanID) {
	if id == 0 {
		return
	}
	tr := int(id>>32) - 1
	lane := int(uint32(id)) - 1
	c := Component(tr / t.opts.Sockets)
	socket := tr % t.opts.Sockets
	now := t.now(socket)
	ls := &t.lanes[tr][lane]
	t.emit(traceEvent{
		name: ls.name, ph: 'E', ts: uint64(now),
		pid: socket, tid: tidOf(c, lane),
	})
	ls.busyUntil = now // lane reusable from this cycle on
	ls.name = ""
}

// Point records an instant protocol event (a grant, a fill, a deferred
// dispatch, a RAS ladder step). Instants share a per-track pseudo-lane and
// never consume span lanes.
func (t *Tracer) Point(c Component, socket int, name string, line uint64) {
	now := t.now(socket)
	if t.rec != nil {
		t.rec.Note(uint64(now), socket, c, name, line)
	}
	if !t.opts.TraceEvents {
		return
	}
	t.emit(traceEvent{
		name: name, ph: 'i', ts: uint64(now),
		pid: socket, tid: tidOf(c, instantLane),
		argKey: "line", argVal: line,
	})
}

// Complete records a self-contained interval [start, start+dur) — DRAM
// accesses and link messages, whose duration is known at issue time. start
// must be >= the previous Complete's start on the same track (true for the
// link's per-direction serialization and for controllers stamping at the
// current cycle), which keeps every lane's timestamps monotone.
func (t *Tracer) Complete(c Component, socket int, name string, argKey string, argVal uint64, start, dur sim.Cycle) {
	if t.rec != nil {
		t.rec.Note(uint64(start), socket, c, name, argVal)
	}
	if !t.opts.TraceEvents {
		return
	}
	tr := t.trackIdx(c, socket)
	lane := t.allocLane(tr, start, start+dur)
	if lane < 0 {
		t.dropped++
		return
	}
	t.emit(traceEvent{
		name: name, ph: 'X', ts: uint64(start), dur: uint64(dur), hasDur: true,
		pid: socket, tid: tidOf(c, lane),
		argKey: argKey, argVal: argVal,
	})
}

// EngineDispatch returns the sim.Engine.OnDispatch hook for socket's
// partition: it subsamples that partition's pending-event count into the
// socket's own Perfetto counter track (pid = socket), so every track stays
// monotone in its partition's clock. It reads queue state and writes only
// telemetry buffers — nothing flows back into the engine.
func (t *Tracer) EngineDispatch(socket int) func(now sim.Cycle, pending int) {
	for len(t.nextDepth) <= socket {
		t.nextDepth = append(t.nextDepth, 0)
	}
	return func(now sim.Cycle, pending int) {
		if !t.opts.TraceEvents || now < t.nextDepth[socket] {
			return
		}
		t.nextDepth[socket] = now + sim.Cycle(t.opts.QueueDepthStrideCyc)
		t.emit(traceEvent{
			name: "pending_events", ph: 'C', ts: uint64(now),
			pid: socket, tid: tidOf(CompEngine, 0),
			argKey: "pending", argVal: uint64(pending),
		})
	}
}
