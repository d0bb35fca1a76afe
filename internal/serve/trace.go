package serve

// The fabric trace is the wall-clock counterpart of the simulator's Chrome
// trace: one span per cell execution, on the track of the worker that ran
// it, between instants on the queue track for enqueue/requeue/poison and
// server markers (drain, degraded flips), plus a queue-depth counter
// series. It is a fold over the event stream (events.go), so it can never
// disagree with the log or the ledger about what happened. GET /trace
// serves the current document at any time; spans still open (cells
// mid-run) are closed in the output only, so a live sweep renders cleanly
// without disturbing the builder.

import (
	"fmt"
	"strings"

	"dve/internal/obslog"
	"dve/internal/telemetry"
)

// fabricPid is the one process row of the fabric trace; the queue owns tid
// 0 and each lease owner (local worker or fabric node) gets its own tid.
const fabricPid = 0

// fabricTrace is only touched under the stream mutex.
type fabricTrace struct {
	b *telemetry.TraceBuilder

	tids    map[string]int // owner -> tid
	nextTid int
	open    map[uint64]int // lease -> tid of its open span
}

func newFabricTrace(maxEvents int) *fabricTrace {
	t := &fabricTrace{
		b:       telemetry.NewTraceBuilder(telemetry.DomainWall, maxEvents),
		tids:    make(map[string]int),
		nextTid: 1,
		open:    make(map[uint64]int),
	}
	t.b.ProcessName(fabricPid, "dveserve fabric")
	t.b.ThreadName(fabricPid, 0, "queue")
	return t
}

// tid returns (allocating on first sight) the track for a lease owner.
func (t *fabricTrace) tid(owner string) int {
	id, ok := t.tids[owner]
	if !ok {
		id = t.nextTid
		t.nextTid++
		t.tids[owner] = id
		t.b.ThreadName(fabricPid, id, "worker "+owner)
	}
	return id
}

// shortKey abbreviates a 64-hex-char content key for span labels.
func shortKey(k string) string {
	if len(k) > 8 {
		return k[:8]
	}
	return k
}

// cellArgs annotates a trace record with the cell's identity and its sweep
// lineage (sweep and cell span IDs minted at /run).
func cellArgs(ev *obslog.Event) map[string]any {
	a := map[string]any{"key": ev.Key, "workload": ev.Workload, "protocol": ev.Protocol}
	if ev.Sweep != "" {
		a["sweep"], a["cell"] = ev.Sweep, ev.Cell
	}
	if ev.Lease != 0 {
		a["lease"] = ev.Lease
	}
	if ev.Attempt != 0 {
		a["attempt"] = ev.Attempt
	}
	if ev.Detail != "" {
		a["reason"] = ev.Detail
	}
	return a
}

// outcomes maps each retirement event to its span's end outcome.
var outcomes = map[string]string{
	evCompleted:     "done",
	evFailed:        "failed",
	evAttemptFailed: "failed",
	evExpired:       "expired",
	evCancelled:     "cancelled",
}

// apply turns one stream event into trace records; depth is the pending
// queue length after it. ts is the event's own timestamp (the builder
// clamps per-track regressions).
func (t *fabricTrace) apply(ev *obslog.Event, depth int) {
	ts := uint64(ev.AtMicros)
	label := strings.TrimPrefix(ev.Event, "cell_") + " " + shortKey(ev.Key)
	switch ev.Event {
	case evEnqueued, evRequeued, evPoisoned:
		t.b.Instant(fabricPid, 0, label, ts, cellArgs(ev))
	case evGranted:
		args := cellArgs(ev)
		args["wait_ms"] = ev.N
		tid := t.tid(ev.Worker)
		t.open[ev.Lease] = tid
		name := fmt.Sprintf("cell %s/%s %s", ev.Workload, ev.Protocol, shortKey(ev.Key))
		t.b.Begin(fabricPid, tid, name, ts, args)
	case evCompleted, evFailed, evAttemptFailed, evExpired, evCancelled:
		// A lease's span ends here; a requeued cell's next life shows up as
		// a fresh span wherever it lands. An outcome with no open span (a
		// late result, a pending copy cancelled) is an instant instead.
		tid, ok := t.open[ev.Lease]
		if !ok {
			t.b.Instant(fabricPid, 0, label, ts, cellArgs(ev))
			break
		}
		delete(t.open, ev.Lease)
		args := map[string]any{"outcome": outcomes[ev.Event]}
		if ev.Detail != "" {
			args["reason"] = ev.Detail
		}
		t.b.End(fabricPid, tid, ts, args)
	case evDrainBegin, evDrainDone:
		t.b.Instant(fabricPid, 0, ev.Event, ts, nil)
	case evDegradedEnter, evDegradedExit:
		t.b.Instant(fabricPid, 0, ev.Event, ts, map[string]any{"healthy_workers": ev.N})
	default:
		return
	}
	if ev.Comp == compQueue {
		t.b.Counter(fabricPid, 0, "queue_depth", ts, "pending", uint64(depth))
	}
}
