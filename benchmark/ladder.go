package main

import (
	"fmt"
	"runtime"
	"time"

	"dve/internal/cache"
	"dve/internal/mem"
	"dve/internal/noc"
	"dve/internal/sim"
	"dve/internal/topology"
	"dve/internal/workload"
)

// The ladder times calls into each leaf layer's public functions, fed by the
// workload's own op stream, so a layer's per-call cost can be read apart
// from the protocol around it:
//
//	workload  Generator.Next over the interleaved 16-thread stream
//	sim       a self-rescheduling ScheduleFn handler per thread, using the
//	          stream's Compute delays
//	cache     L1 <- thread 0's lines; LLC <- socket 0's L1 misses; replica
//	          directory <- the LLC misses (Lookup, then Insert on a miss)
//	mem       Controller Read/Write on the LLC misses, engine drained
//	noc       Link.SendFn, one message per LLC miss to a remote-home line
//
// Each step warms on the first half of its input and times the second half,
// so the arrays are as full as they are inside a real run. Only leaf
// constructors are used; the coherence layer is not built.

// rung is one ladder step's cost per call.
type rung struct {
	calls  int
	ns     float64
	allocs float64
}

// ladderResult is every rung.
type ladderResult struct {
	next, dispatch, l1, llc, replicaDir, dram, link rung
}

// streamOp is one generated op and the thread that issued it.
type streamOp struct {
	tid int
	op  workload.Op
}

// timeRung collects garbage, then times fn, which performs calls calls.
func timeRung(calls int, fn func()) rung {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	fn()
	wall := time.Since(t0)
	runtime.ReadMemStats(&after)
	return rung{
		calls:  calls,
		ns:     ratio(float64(wall.Nanoseconds()), float64(calls)),
		allocs: ratio(float64(after.Mallocs-before.Mallocs), float64(calls)),
	}
}

// halves splits a step's input into its warm-up and timed halves.
func halves[T any](xs []T) (warm, timed []T) {
	return xs[:len(xs)/2], xs[len(xs)/2:]
}

// runLadder climbs the ladder on nops ops of spec's stream under cfg. Each
// rung is recorded as a span under the current one.
func runLadder(spec workload.Spec, cfg topology.Config, nops int, sp *spans) (ladderResult, error) {
	var lr ladderResult
	spec.Threads = cfg.TotalCores()
	gen, err := workload.NewGenerator(spec)
	if err != nil {
		return lr, fmt.Errorf("ladder: %w", err)
	}
	amap := topology.NewAddrMap(&cfg)
	line := amap.LineOf

	// workload: the stream itself.
	stream := make([]streamOp, nops)
	generate := func(ops []streamOp, from int) {
		for i := range ops {
			tid := (from + i) % spec.Threads
			ops[i] = streamOp{tid, gen.Next(tid)}
		}
	}
	warmOps, timedOps := halves(stream)
	generate(warmOps, 0)
	sp.begin("workload.next")
	lr.next = timeRung(len(timedOps), func() { generate(timedOps, len(warmOps)) })
	sp.end()

	// sim: one self-rescheduling handler chain per thread.
	delays := make([][]int, spec.Threads)
	for _, s := range stream {
		if s.op.Kind != workload.Barrier {
			delays[s.tid] = append(delays[s.tid], s.op.Compute)
		}
	}
	eng := sim.NewEngine()
	runChains := func(half int) int {
		events := 0
		for _, d := range delays {
			warm, timed := halves(d)
			c := &chain{eng: eng, delays: warm}
			if half == 1 {
				c.delays = timed
			}
			events += len(c.delays) + 1 // the first step and one per delay
			eng.ScheduleFn(0, chainStep, c, 0)
		}
		return events
	}
	runChains(0)
	eng.Run()
	sp.begin("sim.dispatch")
	events := runChains(1)
	lr.dispatch = timeRung(events, func() { eng.Run() })
	sp.end()

	// cache: L1 <- thread 0's lines.
	access := func(c *cache.Cache, l topology.Line) bool {
		if c.Lookup(l) != nil {
			return true
		}
		c.Insert(l, cache.Shared)
		return false
	}
	var t0Lines []topology.Line
	for _, s := range stream {
		if s.tid == 0 && s.op.Kind != workload.Barrier {
			t0Lines = append(t0Lines, line(s.op.Addr))
		}
	}
	l1 := cache.New(cfg.L1SizeBytes, cfg.L1Ways, cfg.LineSizeBytes)
	warmLines, timedLines := halves(t0Lines)
	for _, l := range warmLines {
		access(l1, l)
	}
	sp.begin("cache.l1")
	lr.l1 = timeRung(len(timedLines), func() {
		for _, l := range timedLines {
			access(l1, l)
		}
	})
	sp.end()

	// cache: LLC <- socket 0's L1 misses (one L1 per socket-0 core).
	l1s := make([]*cache.Cache, cfg.CoresPerSocket)
	for i := range l1s {
		l1s[i] = cache.New(cfg.L1SizeBytes, cfg.L1Ways, cfg.LineSizeBytes)
	}
	var llcIn []workload.Op
	for _, s := range stream {
		if s.tid < cfg.CoresPerSocket && s.op.Kind != workload.Barrier && !access(l1s[s.tid], line(s.op.Addr)) {
			llcIn = append(llcIn, s.op)
		}
	}
	llc := cache.New(cfg.LLCSizeBytes, cfg.LLCWays, cfg.LineSizeBytes)
	var misses []workload.Op
	warmLLC, timedLLC := halves(llcIn)
	for _, op := range warmLLC {
		if !access(llc, line(op.Addr)) {
			misses = append(misses, op)
		}
	}
	timedMisses := make([]bool, len(timedLLC))
	sp.begin("cache.llc")
	lr.llc = timeRung(len(timedLLC), func() {
		for i, op := range timedLLC {
			timedMisses[i] = !access(llc, line(op.Addr))
		}
	})
	sp.end()
	for i, op := range timedLLC {
		if timedMisses[i] {
			misses = append(misses, op)
		}
	}

	// cache: the replica directory <- the LLC misses.
	rd := cache.NewFullyAssoc(cfg.ReplicaDirEntries, cfg.LineSizeBytes)
	warmMiss, timedMiss := halves(misses)
	for _, op := range warmMiss {
		access(rd, line(op.Addr))
	}
	sp.begin("cache.replicadir")
	lr.replicaDir = timeRung(len(timedMiss), func() {
		for _, op := range timedMiss {
			access(rd, line(op.Addr))
		}
	})
	sp.end()

	// mem: socket 0's controller <- the LLC misses, engine drained per access.
	memEng := sim.NewEngine()
	mc := mem.NewController(memEng, &cfg, amap, 0)
	readDone, writeDone := func(bool) {}, func() {}
	dram := func(ops []workload.Op) {
		for _, op := range ops {
			if op.Kind == workload.Write {
				mc.Write(op.Addr, writeDone)
			} else {
				mc.Read(op.Addr, readDone)
			}
			memEng.Run()
		}
	}
	dram(warmMiss)
	sp.begin("mem.access")
	lr.dram = timeRung(len(timedMiss), func() { dram(timedMiss) })
	sp.end()

	// noc: socket 0 -> 1, one control message per miss to a remote-home line.
	linkEng := sim.NewEngine()
	link, err := noc.NewLink([2]*sim.Engine{linkEng, linkEng}, nil, sim.Cycle(cfg.InterSocketCyc()))
	if err != nil {
		return lr, fmt.Errorf("ladder: %w", err)
	}
	remote := 0
	for _, op := range misses {
		if amap.HomeSocket(op.Addr) != 0 {
			remote++
		}
	}
	send := func(n int) {
		for i := 0; i < n; i++ {
			link.SendFn(0, noc.CtrlBytes, delivered, nil, 0)
			linkEng.Run()
		}
	}
	warmSends := remote / 2
	send(warmSends)
	sp.begin("noc.send")
	lr.link = timeRung(remote-warmSends, func() { send(remote - warmSends) })
	sp.end()
	return lr, nil
}

// chain is one thread's run of compute delays on the dispatch rung.
type chain struct {
	eng    *sim.Engine
	delays []int
}

// chainStep reschedules its chain after the next compute delay.
func chainStep(arg any, _ uint64) {
	c := arg.(*chain)
	if len(c.delays) == 0 {
		return
	}
	d := c.delays[0]
	c.delays = c.delays[1:]
	c.eng.ScheduleFn(sim.Cycle(d), chainStep, c, 0)
}

// delivered is the link rung's delivery handler.
func delivered(any, uint64) {}
