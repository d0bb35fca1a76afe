package obslog

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeClock is the injected deterministic clock: each read advances 1ms.
type fakeClock struct{ ticks time.Duration }

func (c *fakeClock) now() time.Duration {
	c.ticks += time.Millisecond
	return c.ticks
}

func TestEmitStampsAndRings(t *testing.T) {
	c := &fakeClock{}
	l := New(Options{Min: Info, Clock: c.now, BaseMicros: 1_000_000, Ring: 4})

	l.Debug("queue", "ignored", Event{}) // below min: not recorded
	l.Emit(Info, "queue", "enqueued", Event{Sweep: "s1", Cell: "s1/c0", Key: "k0", N: 3})
	l.Emit(Warn, "worker", "lease_expired", Event{Lease: 7, Worker: "w1", Attempt: 2})

	got := l.Recent()
	if len(got) != 2 {
		t.Fatalf("Recent() returned %d events, want 2: %+v", len(got), got)
	}
	e := got[0]
	if e.Level != "info" || e.Comp != "queue" || e.Event != "enqueued" {
		t.Errorf("stamped header wrong: %+v", e)
	}
	if e.AtMicros != 1_000_000+1000 { // base + 1ms
		t.Errorf("AtMicros = %d, want %d", e.AtMicros, 1_000_000+1000)
	}
	if e.Sweep != "s1" || e.Cell != "s1/c0" || e.Key != "k0" || e.N != 3 {
		t.Errorf("correlation fields lost: %+v", e)
	}
	if got[1].AtMicros <= got[0].AtMicros {
		t.Errorf("timestamps not advancing: %d then %d", got[0].AtMicros, got[1].AtMicros)
	}
	if l.Emitted() != 2 {
		t.Errorf("Emitted() = %d, want 2", l.Emitted())
	}
}

func TestRingOverwritesOldest(t *testing.T) {
	l := New(Options{Ring: 3})
	for i := 0; i < 7; i++ {
		l.Emit(Info, "c", "e", Event{N: uint64(i)})
	}
	got := l.Recent()
	if len(got) != 3 {
		t.Fatalf("ring holds %d, want 3", len(got))
	}
	for i, want := range []uint64{4, 5, 6} {
		if got[i].N != want {
			t.Errorf("ring[%d].N = %d, want %d (oldest-first order)", i, got[i].N, want)
		}
	}
}

func TestNilLoggerIsSafe(t *testing.T) {
	var l *Logger
	l.Emit(Error, "c", "e", Event{})
	l.Emit(Info, "c", "e", Event{})
	if l.On(Error) {
		t.Error("nil logger reports On(Error) = true")
	}
	if l.Recent() != nil || l.Emitted() != 0 || l.SinkFailures() != 0 {
		t.Error("nil logger accessors not zero")
	}
}

func TestJSONSinkShape(t *testing.T) {
	var buf bytes.Buffer
	l := New(Options{Clock: (&fakeClock{}).now, BaseMicros: 5, Sink: NewJSONSink(&buf)})
	l.Error("coordinator", "poisoned", Event{Sweep: "s9", Cell: "s9/c2", Key: "deadbeef", Attempt: 8, Detail: "poisoned after 8 attempts"})

	line := strings.TrimSpace(buf.String())
	var m map[string]any
	if err := json.Unmarshal([]byte(line), &m); err != nil {
		t.Fatalf("sink line is not JSON: %v\n%s", err, line)
	}
	for k, want := range map[string]any{
		"level": "error", "comp": "coordinator", "event": "poisoned",
		"sweep": "s9", "cell": "s9/c2", "key": "deadbeef",
		"attempt": float64(8), "detail": "poisoned after 8 attempts",
	} {
		if m[k] != want {
			t.Errorf("field %q = %v, want %v", k, m[k], want)
		}
	}
	// omitempty: fields not set must be absent, not zero-valued noise.
	for _, k := range []string{"lease", "worker", "n"} {
		if _, present := m[k]; present {
			t.Errorf("unset field %q present in JSON line: %s", k, line)
		}
	}
}

type failSink struct{}

func (failSink) WriteEvent(*Event) error { return errors.New("disk full") }

func TestSinkFailureCounted(t *testing.T) {
	l := New(Options{Sink: failSink{}})
	l.Emit(Info, "c", "e", Event{})
	l.Emit(Info, "c", "e", Event{})
	if got := l.SinkFailures(); got != 2 {
		t.Errorf("SinkFailures() = %d, want 2", got)
	}
	if got := l.Emitted(); got != 2 {
		t.Errorf("Emitted() = %d, want 2 (ring still records despite sink failure)", got)
	}
}

func TestParseLevel(t *testing.T) {
	for in, want := range map[string]Level{
		"debug": Debug, "info": Info, "": Info, " WARN ": Warn,
		"warning": Warn, "Error": Error,
	} {
		got, err := ParseLevel(in)
		if err != nil || got != want {
			t.Errorf("ParseLevel(%q) = %v, %v; want %v, nil", in, got, err, want)
		}
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Error("ParseLevel(loud) did not error")
	}
}

// TestConcurrentEmit exercises the lock under -race: many goroutines
// emitting and reading concurrently.
func TestConcurrentEmit(t *testing.T) {
	var buf bytes.Buffer
	l := New(Options{Ring: 16, Sink: NewJSONSink(&buf)})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				l.Emit(Info, "worker", "heartbeat", Event{Lease: uint64(g*1000 + i)})
				if i%50 == 0 {
					l.Recent()
				}
			}
		}(g)
	}
	wg.Wait()
	if got := l.Emitted(); got != 1600 {
		t.Errorf("Emitted() = %d, want 1600", got)
	}
	if lines := strings.Count(buf.String(), "\n"); lines != 1600 {
		t.Errorf("sink wrote %d lines, want 1600", lines)
	}
}

// TestDisabledPathAllocs pins the zero-cost-when-disabled contract: a nil
// logger and a below-min-level emit must not allocate.
func TestDisabledPathAllocs(t *testing.T) {
	var nilLogger *Logger
	quiet := New(Options{Min: Error})

	if n := testing.AllocsPerRun(200, func() {
		nilLogger.Emit(Info, "queue", "enqueued", Event{Sweep: "s", Cell: "c", Lease: 1, Key: "k", N: 2})
	}); n != 0 {
		t.Errorf("nil logger emit allocates %v/op, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		quiet.Debug("queue", "enqueued", Event{Sweep: "s", Cell: "c", Lease: 1, Key: "k", N: 2})
	}); n != 0 {
		t.Errorf("below-min emit allocates %v/op, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		if nilLogger.On(Debug) {
			t.Fatal("unreachable")
		}
	}); n != 0 {
		t.Errorf("On() allocates %v/op, want 0", n)
	}
}
