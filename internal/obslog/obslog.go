// Package obslog is the fleet-side structured event log: a leveled,
// race-clean JSON event stream for the sweep fabric (coordinator, lease
// queue, workers) and the cached experiment runner. It is the operational
// complement to internal/telemetry — telemetry observes *simulated* time
// inside one run; obslog observes *wall-clock* fabric time across runs,
// sweeps and processes.
//
// # Event model
//
// Every event carries a level, a component ("coordinator", "queue",
// "worker", "runner"), an event name ("lease_granted", "cache_hit", ...)
// and the correlation IDs the fabric mints: the sweep ID, the per-cell span
// ID, the lease number, the worker ID and the result-cache key. The fixed
// field set is deliberate: it keeps emission allocation-free on the stack,
// makes every record greppable by the same keys the Chrome trace and the
// SSE stream use, and means a log line, a trace span and a /watch delta for
// the same cell always join on (sweep, cell, lease).
//
// # Clock discipline
//
// obslog never reads the wall clock itself — dvelint's determinism analyzer
// stays happy without an exemption. The owner injects a monotonic elapsed
// clock (stats.Stopwatch.Elapsed) plus the absolute wall time of that
// clock's zero point; events are stamped at_us = base + elapsed. Tests
// inject a fake clock and get deterministic timestamps.
//
// # Zero cost when disabled
//
// All methods are nil-receiver safe, and every emission path starts with a
// level check, so a disabled logger (nil, or min level above the call) is a
// branch and nothing else. The Event argument is a value struct: building
// one at a guarded call site does not allocate. AllocsPerRun pins this.
package obslog

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"
)

// Level orders event severity. The zero value is Debug so a zero Options
// logs everything handed to it.
type Level int8

const (
	Debug Level = iota
	Info
	Warn
	Error
)

// levelNames is indexed by Level (array lookup, no enum-coverage hole).
var levelNames = [4]string{"debug", "info", "warn", "error"}

// String renders the level the way the JSON encoding does.
func (l Level) String() string {
	if l >= 0 && int(l) < len(levelNames) {
		return levelNames[l]
	}
	return "unknown"
}

// ParseLevel reads a -log-level flag value.
func ParseLevel(s string) (Level, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "debug":
		return Debug, nil
	case "info", "":
		return Info, nil
	case "warn", "warning":
		return Warn, nil
	case "error":
		return Error, nil
	}
	return Info, fmt.Errorf("obslog: unknown level %q (want debug|info|warn|error)", s)
}

// Event is one structured record. Emit stamps AtMicros, Level, Comp and
// Event; call sites fill only the correlation fields that apply. The field
// set is fixed (not a KV bag) so building one is allocation-free.
type Event struct {
	// AtMicros is absolute wall-clock microseconds (base + injected
	// elapsed clock): the "wall" domain, same as the fabric Chrome trace.
	AtMicros int64  `json:"at_us"`
	Level    string `json:"level"`
	Comp     string `json:"comp"`
	Event    string `json:"event"`

	Sweep   string `json:"sweep,omitempty"`   // sweep ID minted at /run
	Cell    string `json:"cell,omitempty"`    // per-cell span ID within the sweep
	Lease   uint64 `json:"lease,omitempty"`   // lease number (0 = none)
	Worker  string `json:"worker,omitempty"`  // worker/owner ID
	Key     string `json:"key,omitempty"`     // result-cache content address
	Attempt int    `json:"attempt,omitempty"` // delivery attempt, 1-based
	N       uint64 `json:"n,omitempty"`       // event-specific magnitude (depth, ms, bytes)
	Detail  string `json:"detail,omitempty"`  // error text / free-form note

	// Workload and Protocol name the cell, so a record alone can label its
	// trace span.
	Workload string `json:"workload,omitempty"`
	Protocol string `json:"protocol,omitempty"`
}

// Sink receives emitted events. WriteEvent must be safe for concurrent use
// only if the sink is shared across loggers; a Logger serialises its own
// calls. The *Event is valid only for the duration of the call.
type Sink interface {
	WriteEvent(e *Event) error
}

// Options configures New.
type Options struct {
	// Min is the minimum level recorded; events below it cost one branch.
	Min Level
	// Clock returns elapsed time since the logger's wall-clock zero point.
	// Nil means all events stamp at BaseMicros (still usable in tests).
	Clock func() time.Duration
	// BaseMicros is the absolute wall-clock time (µs since the Unix epoch)
	// at Clock() == 0. The cmd/ layer reads time.Now once at startup; the
	// analyzer-scoped internal packages never touch the wall clock.
	BaseMicros int64
	// Ring bounds the in-memory ring of recent events (Recent). 0 means
	// 256; negative disables the ring.
	Ring int
	// Sink receives every recorded event, if non-nil (e.g. NewJSONSink).
	Sink Sink
}

// Logger is a leveled structured event log. The nil *Logger is a valid,
// fully disabled logger.
type Logger struct {
	min   Level
	clock func() time.Duration
	base  int64
	sink  Sink

	mu      sync.Mutex
	ring    []Event // fixed-size once full
	ringCap int
	next    int // next ring write index once saturated
	wrapped bool

	emitted   uint64
	sinkFails uint64
}

// New builds a logger. A nil return never happens; disable by level or by
// using a nil *Logger.
func New(o Options) *Logger {
	ringCap := o.Ring
	if ringCap == 0 {
		ringCap = 256
	}
	if ringCap < 0 {
		ringCap = 0
	}
	l := &Logger{min: o.Min, clock: o.Clock, base: o.BaseMicros, sink: o.Sink, ringCap: ringCap}
	if ringCap > 0 {
		l.ring = make([]Event, 0, ringCap)
	}
	return l
}

// On reports whether events at level lv would be recorded. Guarding bulky
// field computation behind On keeps disabled call sites allocation-free.
func (l *Logger) On(lv Level) bool { return l != nil && lv >= l.min }

// Emit records one event at level lv. The logger stamps the timestamp,
// level, component and event name; ev supplies the correlation fields.
// No-op on a nil logger or a level below the minimum.
func (l *Logger) Emit(lv Level, comp, event string, ev Event) {
	if l == nil || lv < l.min {
		return
	}
	ev.Level = lv.String()
	ev.Comp = comp
	ev.Event = event
	ev.AtMicros = l.base
	if l.clock != nil {
		ev.AtMicros += l.clock().Microseconds()
	}

	l.mu.Lock()
	l.emitted++
	if l.ringCap > 0 {
		if len(l.ring) < l.ringCap {
			l.ring = append(l.ring, ev)
		} else {
			l.ring[l.next] = ev
			l.next = (l.next + 1) % l.ringCap
			l.wrapped = true
		}
	}
	if l.sink != nil {
		// Copy before taking the address: &ev would make the parameter
		// escape and heap-allocate at function entry, breaking the
		// 0-alloc disabled path.
		rec := ev
		if err := l.sink.WriteEvent(&rec); err != nil {
			l.sinkFails++
		}
	}
	l.mu.Unlock()
}

// Debug emits at Debug level.
func (l *Logger) Debug(comp, event string, ev Event) { l.Emit(Debug, comp, event, ev) }

// Error emits at Error level.
func (l *Logger) Error(comp, event string, ev Event) { l.Emit(Error, comp, event, ev) }

// Recent returns a copy of the ring, oldest first. Nil-safe.
func (l *Logger) Recent() []Event {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Event, 0, len(l.ring))
	if l.wrapped {
		out = append(out, l.ring[l.next:]...)
		out = append(out, l.ring[:l.next]...)
	} else {
		out = append(out, l.ring...)
	}
	return out
}

// Emitted returns how many events were recorded. Nil-safe.
func (l *Logger) Emitted() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.emitted
}

// SinkFailures returns how many events a sink refused — the log's "drop"
// ledger, never silent. Nil-safe.
func (l *Logger) SinkFailures() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sinkFails
}

// JSONSink writes one compact JSON object per line. It serialises its own
// writes so one sink may back several loggers (coordinator + queue +
// embedded runner sharing a -log file).
type JSONSink struct {
	mu  sync.Mutex
	w   io.Writer
	enc *json.Encoder
}

// NewJSONSink wraps w (append-only; callers own closing it).
func NewJSONSink(w io.Writer) *JSONSink {
	return &JSONSink{w: w, enc: json.NewEncoder(w)}
}

// WriteEvent writes the event as one JSON line.
func (s *JSONSink) WriteEvent(e *Event) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.enc.Encode(e)
}
