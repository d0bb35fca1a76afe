package ras

import (
	"dve/internal/coherence"
	"dve/internal/fault"
	"dve/internal/rmt"
	"dve/internal/sim"
	"dve/internal/topology"
)

// EngineConfig selects what one RAS engine does to a run.
type EngineConfig struct {
	// Inject, when set, arms the dynamic fault injector.
	Inject *InjectorConfig
	// Static faults are planted before the run starts (the pre-run
	// campaign style).
	Static []fault.Fault
	// KillSocket, when >= 0, kills that socket's memory controller at
	// KillAtCyc, demoting its dependents to unreplicated mode.
	KillSocket int
	// KillAtCyc is the simulated cycle of the kill.
	KillAtCyc uint64
	// Hammer, when set, wires RowHammer threshold crossings to victim-row
	// bitflip injection and the defense-ladder scorer (see hammer.go).
	Hammer *HammerConfig
}

// Engine attaches the RAS machinery to one simulation run: it journals
// every recovery-path event the coherence layer reports, runs the dynamic
// fault injector, serves page retirement through an RMT table, and
// orchestrates mid-run socket kills. Use Attach as the run's
// dve.RunConfig.Prepare hook.
type Engine struct {
	cfg EngineConfig
	set *fault.Set

	// Journal is the run's complete RAS event history, in simulation
	// order.
	Journal Journal
	// Retired maps retired pages to their spare replacements (the RMT's
	// page-retirement entries).
	Retired *rmt.Table

	// Inj is the dynamic injector, if armed.
	Inj *Injector
	// Hammer is the RowHammer flip/defense state, if armed.
	Hammer *HammerState

	amap      *topology.AddrMap
	sparePage uint64
}

// NewEngine builds a RAS engine feeding the given fault set. The set must
// be the same one wired into the run (dve.RunConfig.Faults) or injected
// faults will never surface.
func NewEngine(cfg EngineConfig, set *fault.Set) *Engine {
	return &Engine{cfg: cfg, set: set}
}

// Attach wires the engine into a freshly built system. It is shaped to be
// used directly as dve.RunConfig.Prepare; a Prepare hook runs the socket
// partitions on one worker, so the journal and fault set need no locking.
// Events are stamped with their socket's partition clock.
func (e *Engine) Attach(sys *coherence.System) {
	e.amap = sys.AMap
	e.Retired = rmt.NewTable(sys.Cfg.PageBytes)
	// Spare pages for retirement come from far above any workload
	// footprint, so remapped pages never collide with live ones.
	e.sparePage = (1 << 40) / uint64(sys.Cfg.PageBytes)

	sys.RASEvent = func(kind string, socket int, l topology.Line) {
		e.Journal.Append(Event{
			Cycle:  uint64(sys.Engs[socket].Now()),
			Kind:   kind,
			Socket: socket,
			Line:   uint64(l),
		})
	}
	sys.RetireFn = e.retire

	for _, f := range e.cfg.Static {
		e.set.Add(f)
	}
	if e.cfg.Inject != nil {
		// One arrival process for the whole machine, clocked by socket
		// 0's partition; it only mutates the shared fault set.
		e.Inj = NewInjector(*e.cfg.Inject, sys.Engs[0], e.set, sys.Cfg, e.Journal.Append)
		e.Inj.Start()
	}
	if e.cfg.Hammer != nil {
		e.Hammer = newHammerState(*e.cfg.Hammer, sys, e.set, e.Journal.Append)
		e.Hammer.attach()
	}
	if e.cfg.KillSocket >= 0 {
		socket := e.cfg.KillSocket
		sys.Engs[socket].ScheduleDaemon(sim.Cycle(e.cfg.KillAtCyc), func() {
			sys.KillSocketMemory(socket, nil)
		})
	}
}

// retire serves the coherence layer's page-retirement requests (ladder
// rung 4): the first request for a page maps it to a spare in the RMT and
// succeeds; repeat requests for the same page report it already retired.
func (e *Engine) retire(l topology.Line) bool {
	page := e.amap.PageOf(topology.Addr(l))
	if _, ok := e.Retired.ReplicaAddr(topology.Addr(l)); ok {
		return false
	}
	e.sparePage++
	if e.Retired.Map(page, e.sparePage) != nil {
		return false
	}
	return true
}
