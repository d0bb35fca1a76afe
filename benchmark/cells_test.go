package main

import (
	"errors"
	"strings"
	"testing"

	idve "dve/internal/dve"
)

// tinyCells runs n real cells of fft-deny at a few thousand ops.
func tinyCells(t *testing.T, n int) ([]cell, workloadDef, int) {
	t.Helper()
	w := tiny(t, "fft-deny")
	spec, err := w.spec(1)
	if err != nil {
		t.Fatal(err)
	}
	cells := make([]cell, n)
	for i := range cells {
		cells[i] = runCell(spec, w.runConfig(w.engine, w.warmup, w.measure))
		if cells[i].err != nil {
			t.Fatal(cells[i].err)
		}
	}
	return cells, w, spec.Threads
}

func TestGatePassesIdenticalCells(t *testing.T) {
	cells, w, threads := tinyCells(t, 3)
	for i, r := range gate(cells, w.measure, threads, cells[0].digest) {
		if r != "" {
			t.Errorf("cell %d failed: %s", i, r)
		}
	}
}

// Tampering with a result must fail that cell only, with a reason, and
// never crash the gate.
func TestGateFailsTamperedCells(t *testing.T) {
	for _, tc := range []struct {
		name   string
		tamper func(c *cell)
		want   string
	}{
		{"digest", func(c *cell) { c.digest = strings.Repeat("0", 64) }, "differs from the other cells"},
		{"violation", func(c *cell) {
			res := *c.res
			res.InvariantViolations = []string{"SWMR: two writers"}
			c.res = &res
		}, "invariant violations"},
		{"error", func(c *cell) { c.res, c.err, c.digest = nil, errors.New("boom"), "" }, "error: boom"},
		{"op count", func(c *cell) {
			res := *c.res
			res.Counters.Ops = 1
			c.res = &res
		}, "ROI ops"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cells, w, threads := tinyCells(t, 3)
			tc.tamper(&cells[1])
			reasons := gate(cells, w.measure, threads, "")
			if reasons[0] != "" || reasons[2] != "" {
				t.Errorf("untouched cells failed: %q", reasons)
			}
			if !strings.Contains(reasons[1], tc.want) {
				t.Errorf("tampered cell reason %q, want it to mention %q", reasons[1], tc.want)
			}
		})
	}
}

func TestGateChecksSerialTwin(t *testing.T) {
	cells, w, threads := tinyCells(t, 2)
	for i, r := range gate(cells, w.measure, threads, "another digest") {
		if !strings.Contains(r, "serial twin") {
			t.Errorf("cell %d reason %q, want a twin mismatch", i, r)
		}
	}
}

// Serial and parallel execution of one partitioned simulation digest alike,
// which is what lets fft-deny-2w check its cells against a serial twin.
func TestDigestIgnoresWorkerCount(t *testing.T) {
	w := tiny(t, "fft-deny-2w")
	spec, err := w.spec(7)
	if err != nil {
		t.Fatal(err)
	}
	par := runCell(spec, w.runConfig(idve.EngineParallel, w.warmup, w.measure))
	ser := runCell(spec, w.runConfig(idve.EngineSerial, w.warmup, w.measure))
	if par.err != nil || ser.err != nil {
		t.Fatal(par.err, ser.err)
	}
	if par.res.Workers == ser.res.Workers {
		t.Fatalf("both runs used %d workers", par.res.Workers)
	}
	if par.digest != ser.digest {
		t.Fatalf("parallel digest %.12s != serial %.12s", par.digest, ser.digest)
	}
}
