// Package sim is a stand-in for dve/internal/sim: the analyzers recognize
// the engine's scheduling API by package name, type name and method name,
// so this stub exercises the same detection path as the real engine.
package sim

// Cycle mirrors sim.Cycle.
type Cycle uint64

// Handler mirrors sim.Handler, the typed fast-path callback.
type Handler func(arg any, v uint64)

// Engine mirrors the scheduling surface of sim.Engine.
type Engine struct{ now Cycle }

// Now returns the current cycle.
func (e *Engine) Now() Cycle { return e.now }

// Schedule runs fn after delay cycles.
func (e *Engine) Schedule(delay Cycle, fn func()) {}

// ScheduleDaemon schedules a background event.
func (e *Engine) ScheduleDaemon(delay Cycle, fn func()) {}

// At runs fn at an absolute cycle.
func (e *Engine) At(when Cycle, fn func()) {}

// ScheduleFn mirrors the typed fast path of Schedule.
func (e *Engine) ScheduleFn(delay Cycle, h Handler, arg any, v uint64) {}

// AtFn mirrors the typed fast path of At.
func (e *Engine) AtFn(when Cycle, h Handler, arg any, v uint64) {}

// ParallelEngine mirrors the cross-partition scheduling surface of
// sim.ParallelEngine: per-socket partitions synchronized at link-latency
// epochs, with a mailbox for events that cross the partition boundary.
type ParallelEngine struct{ parts []*Engine }

// Part returns partition i's engine.
func (pe *ParallelEngine) Part(i int) *Engine { return pe.parts[i] }

// CrossAt delivers fn to partition dst at absolute cycle when.
func (pe *ParallelEngine) CrossAt(src, dst int, when Cycle, fn func()) {}

// CrossAtFn mirrors the typed fast path of CrossAt.
func (pe *ParallelEngine) CrossAtFn(src, dst int, when Cycle, h Handler, arg any, v uint64) {}

// CrossSchedule delivers fn to partition dst, delay cycles from now.
func (pe *ParallelEngine) CrossSchedule(src, dst int, delay Cycle, fn func()) {}
