// Conservative parallel discrete-event simulation over engine partitions.
//
// A ParallelEngine owns one Engine per partition (one per socket in this
// simulator) and runs them in lockstepped epochs. The lookahead invariant
// that makes this safe is the inter-partition link latency: a message sent
// from partition p at cycle t cannot be delivered to another partition
// before t+window, where window = min link latency + 1 (every link message
// pays at least one serialization cycle before the latency leg). So all
// partitions may freely execute the half-open window [T, T+window) without
// observing each other, where T is the global minimum pending-event time.
//
// Cross-partition messages are not scheduled directly on the destination
// engine (that would race); they accumulate in per-(src,dst) mailbox lanes
// during the epoch and are merged at the barrier. The merge rule makes the
// destination order deterministic regardless of worker interleaving: lanes
// are concatenated in source order and stable-sorted by delivery time, so
// ties break by (delivery time, source partition, send order within the
// source). Destination sequence numbers are assigned in merge order, which
// is identical whether the epoch ran on one goroutine or many — parallel
// and serial partitioned runs are byte-identical by construction.
package sim

import "sync"

// crossEvent is one mailbox entry: an absolute-time event bound for another
// partition, in the Engine's typed (h, arg, v) form. Closure sends ride as
// (runClosure, fn), exactly as Engine.At stores them.
type crossEvent struct {
	when Cycle
	h    Handler
	arg  any
	v    uint64
}

// ParallelEngine coordinates nparts calendar-queue partitions that may only
// interact through CrossAt/CrossAtFn messages delayed by at least the
// lookahead window.
type ParallelEngine struct {
	parts   []*Engine
	window  Cycle
	workers int

	// lanes[src*n+dst] is the mailbox from src to dst. Each lane has a
	// single writer (the goroutine running partition src) during an epoch
	// and is drained by the coordinator at the barrier; the slices keep
	// their capacity so the steady state appends without allocating.
	lanes   [][]crossEvent
	scratch []crossEvent

	epochs uint64
	stalls uint64

	// Worker machinery for Run with workers > 1: one persistent goroutine
	// per partition, fed epoch end times over its channel; closing the
	// channels at the end of Run stops them (no goroutine outlives Run).
	start []chan Cycle
	wg    sync.WaitGroup
}

// NewParallelEngine returns a parallel engine with nparts fresh partitions
// and the given lookahead window in cycles. The window must be at least 1
// — a degenerate window means the config's link latency cannot bound
// cross-partition visibility (noc.NewLink rejects such latencies). Workers
// defaults to nparts; SetWorkers(1) forces the serial epoch loop (same
// results by construction).
func NewParallelEngine(nparts int, window Cycle) *ParallelEngine {
	if nparts < 1 {
		panic("sim: parallel engine needs at least one partition")
	}
	if window < 1 {
		panic("sim: lookahead window must be at least one cycle")
	}
	pe := &ParallelEngine{
		parts:   make([]*Engine, nparts),
		window:  window,
		workers: nparts,
		lanes:   make([][]crossEvent, nparts*nparts),
	}
	for i := range pe.parts {
		pe.parts[i] = NewEngine()
	}
	return pe
}

// Part returns partition i's engine. All intra-partition scheduling goes
// straight to it; only cross-partition messages go through the mailbox.
func (pe *ParallelEngine) Part(i int) *Engine { return pe.parts[i] }

// Parts returns the number of partitions.
func (pe *ParallelEngine) Parts() int { return len(pe.parts) }

// Window returns the lookahead window in cycles: the minimum scheduling
// distance CrossAt accepts.
func (pe *ParallelEngine) Window() Cycle { return pe.window }

// SetWorkers bounds the goroutines Run uses: n <= 1 selects the in-place
// serial epoch loop, anything larger runs one goroutine per partition.
// Results are identical either way; only wall-clock changes.
func (pe *ParallelEngine) SetWorkers(n int) {
	if n < 1 {
		n = 1
	}
	pe.workers = n
}

// Epochs returns how many barrier-to-barrier windows Run executed. The
// count is a pure function of the event trace (it does not depend on the
// worker count), so it is safe to fold into deterministic statistics.
func (pe *ParallelEngine) Epochs() uint64 { return pe.epochs }

// BarrierStalls counts partition-epochs in which a partition had no event
// inside the window and idled at the barrier — the deterministic
// load-imbalance signal (again independent of the worker count).
func (pe *ParallelEngine) BarrierStalls() uint64 { return pe.stalls }

// CrossAt enqueues fn for partition dst at absolute cycle when, sent from
// partition src. when must respect the lookahead window relative to src's
// clock; violating it means the configured link latency did not actually
// bound the message, i.e. the conservative synchronization would be wrong.
func (pe *ParallelEngine) CrossAt(src, dst int, when Cycle, fn func()) {
	pe.CrossAtFn(src, dst, when, runClosure, fn, 0)
}

// CrossAtFn is the allocation-free fast path of CrossAt, mirroring
// Engine.AtFn: a package-level Handler plus pointer-shaped arg avoids the
// per-message closure.
func (pe *ParallelEngine) CrossAtFn(src, dst int, when Cycle, h Handler, arg any, v uint64) {
	pe.checkLookahead(src, when)
	lane := &pe.lanes[src*len(pe.parts)+dst]
	*lane = append(*lane, crossEvent{when: when, h: h, arg: arg, v: v})
}

// CrossSchedule is the relative-delay form of CrossAt; delay must be at
// least the lookahead window.
func (pe *ParallelEngine) CrossSchedule(src, dst int, delay Cycle, fn func()) {
	pe.CrossAt(src, dst, pe.parts[src].now+delay, fn)
}

func (pe *ParallelEngine) checkLookahead(src int, when Cycle) {
	if when < pe.parts[src].now+pe.window {
		panic("sim: cross-partition event inside the lookahead window")
	}
}

// nextEpoch computes the next epoch's inclusive end, or ok=false when all
// demanded work (everywhere) has drained. Cross events merged at the
// previous barrier are already in their destination queues, so the demand
// sum sees in-flight link messages.
func (pe *ParallelEngine) nextEpoch() (end Cycle, ok bool) {
	demand := 0
	for _, p := range pe.parts {
		demand += p.demand
	}
	if demand == 0 {
		return 0, false
	}
	var t Cycle
	have := false
	for _, p := range pe.parts {
		if c, ok := p.NextEventTime(); ok && (!have || c < t) {
			t, have = c, true
		}
	}
	if !have {
		return 0, false
	}
	return t + pe.window - 1, true
}

// countStalls records partitions with nothing to do before end. Purely a
// function of queue state at the barrier, so deterministic.
func (pe *ParallelEngine) countStalls(end Cycle) {
	for _, p := range pe.parts {
		if c, ok := p.NextEventTime(); !ok || c > end {
			pe.stalls++
		}
	}
}

// Run executes epochs until every partition's demanded work drains. With
// workers > 1 each epoch runs the partitions on their own goroutines; the
// mailbox merge happens at the barrier either way. It returns the largest
// partition clock.
func (pe *ParallelEngine) Run() Cycle {
	if pe.workers > 1 && len(pe.parts) > 1 {
		pe.runParallel()
	} else {
		for {
			end, ok := pe.nextEpoch()
			if !ok {
				break
			}
			pe.epochs++
			pe.countStalls(end)
			for _, p := range pe.parts {
				p.RunUntil(end)
			}
			pe.merge()
		}
	}
	var max Cycle
	for _, p := range pe.parts {
		if p.now > max {
			max = p.now
		}
	}
	return max
}

// runParallel is the worker-goroutine epoch loop. Lane writes happen on
// worker goroutines during RunUntil and are read by the coordinator only
// after wg.Wait, so the channel send / WaitGroup pair carries all the
// happens-before edges the race detector needs.
func (pe *ParallelEngine) runParallel() {
	pe.start = make([]chan Cycle, len(pe.parts))
	for i := range pe.parts {
		ch := make(chan Cycle, 1)
		pe.start[i] = ch
		go func(p *Engine) {
			for end := range ch {
				p.RunUntil(end)
				pe.wg.Done()
			}
		}(pe.parts[i])
	}
	for {
		end, ok := pe.nextEpoch()
		if !ok {
			break
		}
		pe.epochs++
		pe.countStalls(end)
		pe.wg.Add(len(pe.start))
		for _, ch := range pe.start {
			ch <- end
		}
		pe.wg.Wait()
		pe.merge()
	}
	for _, ch := range pe.start {
		close(ch)
	}
	pe.start = nil
}

// merge drains every mailbox lane into its destination engine. For each
// destination the lanes are concatenated in source order and stable-sorted
// by delivery time (insertion sort: lanes are tiny and mostly sorted), so
// the destination sequence order is (when, src, send order) — independent
// of how the epoch was executed.
func (pe *ParallelEngine) merge() {
	n := len(pe.parts)
	for dst := 0; dst < n; dst++ {
		buf := pe.scratch[:0]
		for src := 0; src < n; src++ {
			li := src*n + dst
			buf = append(buf, pe.lanes[li]...)
			clear(pe.lanes[li]) // release arg/handler references
			pe.lanes[li] = pe.lanes[li][:0]
		}
		for i := 1; i < len(buf); i++ {
			for j := i; j > 0 && buf[j].when < buf[j-1].when; j-- {
				buf[j], buf[j-1] = buf[j-1], buf[j]
			}
		}
		p := pe.parts[dst]
		for i := range buf {
			ev := &buf[i]
			p.AtFn(ev.when, ev.h, ev.arg, ev.v)
		}
		clear(buf)
		pe.scratch = buf[:0]
	}
}
