package main

import (
	"fmt"
	"os"
	"time"

	"dve/internal/telemetry"
)

// spans records the benchmark's own wall-clock spans around its calls into
// the simulator: workload -> pass -> cell or ladder step. Each span carries
// its id and its parent's id (0 for the root), and nests on one track, so
// the written file is a valid wall-domain Chrome trace.
type spans struct {
	b     *telemetry.TraceBuilder
	start time.Time
	open  []int
	next  int
}

func newSpans() *spans {
	b := telemetry.NewTraceBuilder(telemetry.DomainWall, 0)
	b.ProcessName(0, "benchmark")
	b.ThreadName(0, 0, "harness")
	return &spans{b: b, start: time.Now()}
}

func (s *spans) now() uint64 { return uint64(time.Since(s.start).Microseconds()) }

// begin opens a span inside the innermost open one.
func (s *spans) begin(name string) {
	s.next++
	parent := 0
	if len(s.open) > 0 {
		parent = s.open[len(s.open)-1]
	}
	s.open = append(s.open, s.next)
	s.b.Begin(0, 0, name, s.now(), map[string]any{"id": s.next, "parent": parent})
}

// end closes the innermost open span.
func (s *spans) end() {
	s.open = s.open[:len(s.open)-1]
	s.b.End(0, 0, s.now(), nil)
}

// write saves the trace as Chrome trace-event JSON.
func (s *spans) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	if err := s.b.WriteTrace(f); err != nil {
		f.Close()
		return fmt.Errorf("spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	return nil
}
