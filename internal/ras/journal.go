// Package ras is the reliability/availability/serviceability engine over
// the Dvé simulator: a seeded dynamic fault injector with a transient →
// intermittent → hard lifecycle per fault, a machine-readable journal of
// every recovery-path event, mid-run socket-kill orchestration with
// graceful degradation to unreplicated mode, and a campaign runner that
// sweeps seeds × workloads × fault scenarios asserting zero SDC, zero
// coherence-invariant violations, and DUEs only where the Section IV
// reliability model permits them.
package ras

import "encoding/json"

// Event is one entry of the RAS journal. Cycle is simulated time; Kind is
// either a coherence.Ev* recovery-path kind or an injector lifecycle kind
// (EvInject, EvEscalate, EvHarden, EvExpire). Events carry no wall-clock
// state, so a journal is a pure function of (scenario, seed) and two runs
// with the same inputs produce byte-identical journals.
type Event struct {
	Cycle  uint64 `json:"cycle"`
	Kind   string `json:"kind"`
	Socket int    `json:"socket"`
	Line   uint64 `json:"line,omitempty"`
	Detail string `json:"detail,omitempty"`
}

// Injector lifecycle event kinds (the recovery-path kinds are the
// coherence.Ev* constants).
const (
	EvInject   = "inject"                // fault arrived (transient phase)
	EvEscalate = "escalate-intermittent" // transient hardened to intermittent
	EvHarden   = "escalate-hard"         // intermittent hardened to permanent
	EvExpire   = "expire"                // fault went away on its own
)

// Journal accumulates RAS events in simulation order.
type Journal struct {
	Events []Event `json:"events"`
}

// Append records one event.
func (j *Journal) Append(ev Event) { j.Events = append(j.Events, ev) }

// Count returns how many events of the kind were journaled.
func (j *Journal) Count(kind string) int {
	n := 0
	for i := range j.Events {
		if j.Events[i].Kind == kind {
			n++
		}
	}
	return n
}

// Len returns the number of journaled events.
func (j *Journal) Len() int { return len(j.Events) }

// Bytes renders the journal as deterministic, indented JSON.
func (j *Journal) Bytes() ([]byte, error) {
	return json.MarshalIndent(j, "", "  ")
}
