package dve

import (
	"fmt"

	"dve/internal/topology"
)

// EngineMode selects how the simulation engine executes a run.
//
// Every run splits the machine at the socket boundary: each socket's events
// run on their own calendar queue, synchronized at link-latency epochs
// (conservative lookahead — no cross-socket message can arrive sooner than
// the link's minimum latency, so partitions may safely run a window of that
// size without consulting each other). The modes differ only in how many
// worker goroutines execute the partition queues; the statistics are
// byte-identical whatever the worker count.
type EngineMode int

const (
	// EngineSerial runs the partitions on one goroutine. It is the zero
	// value, and so the mode of every run the commands start: on measured
	// hosts the epoch handoff costs more than a second worker recovers.
	EngineSerial EngineMode = iota
	// EngineParallel runs one worker per socket even when GOMAXPROCS is 1
	// (real goroutines, no speedup) — equivalence and race tests use it to
	// exercise the concurrent path.
	EngineParallel
)

// String returns the mode's name.
func (m EngineMode) String() string {
	switch m {
	case EngineSerial:
		return "serial"
	case EngineParallel:
		return "parallel"
	default:
		// Any out-of-range value was manufactured deliberately.
		panic(fmt.Sprintf("dve: invalid EngineMode %d", int(m)))
	}
}

// singleWorker reports whether the run must execute its partitions on one
// goroutine. The features below share mutable state across sockets, which
// is safe only when epochs run serially (the mailbox merge rule still fixes
// the event order, so the results do not depend on this choice):
//   - telemetry tracing appends to one event buffer and flight recorder;
//   - fault injection, Prepare hooks and RAS campaigns mutate one fault set
//     and journal from every socket;
//   - patrol scrubbing repairs through the shared fault model;
//   - external op sources are not required to be concurrency-safe;
//   - the flexible replica map is consulted from both sockets;
//   - the dynamic protocol's controller counts ops and switches the replica
//     directories of both sockets;
//   - the oracular replica directory reads remote directory state with
//     zero latency (a direct cross-partition peek).
func singleWorker(rc *RunConfig, cfg *topology.Config) bool {
	return cfg.Oracular ||
		cfg.Protocol == topology.ProtoDynamic ||
		rc.Telemetry != nil ||
		rc.Faults != nil ||
		rc.FaultFn != nil ||
		rc.Prepare != nil ||
		rc.ScrubIntervalCyc != 0 ||
		rc.Source != nil ||
		rc.ReplicaMap != nil
}

// resolveEngine decides how many worker goroutines execute the partitions
// for a requested mode.
func resolveEngine(mode EngineMode, rc *RunConfig, cfg *topology.Config) (workers int) {
	if singleWorker(rc, cfg) {
		return 1
	}
	switch mode {
	case EngineParallel:
		return cfg.Sockets
	case EngineSerial:
		return 1
	default:
		panic(fmt.Sprintf("dve: invalid EngineMode %d", int(mode)))
	}
}
