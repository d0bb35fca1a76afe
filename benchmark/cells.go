package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	idve "dve/internal/dve"
	"dve/internal/stats"
	"dve/internal/workload"
)

// cell is the outcome of one dve.Run.
type cell struct {
	wall    time.Duration
	ref     time.Duration // mean reference-loop time around the run (0: not timed)
	mallocs uint64        // runtime.MemStats.Mallocs delta across the run
	bytes   uint64        // runtime.MemStats.TotalAlloc delta across the run
	res     *idve.Result
	err     error
	digest  string
}

// normalized is the cell's wall time in seconds at the reference loop's
// nominal speed (see reference.go).
func (c cell) normalized() float64 {
	return c.wall.Seconds() * refNominal.Seconds() / c.ref.Seconds()
}

// runCell collects garbage, then times one dve.Run. Only the run itself is
// inside the timed region and the allocation deltas.
func runCell(spec workload.Spec, rc idve.RunConfig) cell {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	res, err := idve.Run(spec, rc)
	wall := time.Since(t0)
	runtime.ReadMemStats(&after)
	c := cell{
		wall:    wall,
		mallocs: after.Mallocs - before.Mallocs,
		bytes:   after.TotalAlloc - before.TotalAlloc,
		res:     res,
		err:     err,
	}
	if err == nil {
		c.digest = digest(res)
	}
	return c
}

// digest is SHA-256 over the JSON of the simulated outputs: ROI cycles, the
// counters and the invariant violations. Host-side fields (engine label,
// worker count) are left out, so serial and parallel runs of one
// partitioned simulation agree.
func digest(res *idve.Result) string {
	b, err := json.Marshal(struct {
		Cycles     uint64
		Counters   stats.Counters
		Violations []string
	}{res.Cycles, res.Counters, res.InvariantViolations})
	if err != nil {
		// Counters are plain numbers and a histogram with its own
		// marshaller; failing to encode them is a bug.
		panic(fmt.Sprintf("benchmark: digest: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// gate returns why each cell failed, "" for a cell that passed. A cell fails
// if it returned an error, reported invariant violations, retired another
// ROI op count than requested, or produced a digest that differs from the
// workload's other cells (the most common digest, earliest on a tie) or,
// when twin is set, from the serial twin's.
//
// A run stops issuing once its budget is reached but lets ops already in
// flight complete, so the requested count is measure plus at most one op
// per other thread.
func gate(cells []cell, measure uint64, threads int, twin string) []string {
	counts := map[string]int{}
	ref := ""
	for _, c := range cells {
		if c.err != nil {
			continue
		}
		counts[c.digest]++
		if ref == "" || counts[c.digest] > counts[ref] {
			ref = c.digest
		}
	}
	reasons := make([]string, len(cells))
	for i, c := range cells {
		switch {
		case c.err != nil:
			reasons[i] = fmt.Sprintf("error: %v", c.err)
		case len(c.res.InvariantViolations) > 0:
			reasons[i] = fmt.Sprintf("%d invariant violations, first: %s",
				len(c.res.InvariantViolations), c.res.InvariantViolations[0])
		case c.res.Counters.Ops < measure || c.res.Counters.Ops >= measure+uint64(threads):
			reasons[i] = fmt.Sprintf("retired %d ROI ops, want %d to %d",
				c.res.Counters.Ops, measure, measure+uint64(threads)-1)
		case c.digest != ref:
			reasons[i] = fmt.Sprintf("digest %.12s differs from the other cells' %.12s", c.digest, ref)
		case twin != "" && c.digest != twin:
			reasons[i] = fmt.Sprintf("digest %.12s differs from the serial twin's %.12s", c.digest, twin)
		}
	}
	return reasons
}
