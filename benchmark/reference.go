package main

import (
	"math/rand"
	"sync"
	"time"
	"unsafe"
)

// Host speed on a shared machine drifts by 10-40% over seconds to minutes
// as neighbours load the cores and the memory system, which moves a cell's
// wall time far beyond the size of a regression worth catching. A fixed
// reference loop, timed between consecutive cells, drifts with it: each
// cell's wall time is also reported scaled by refNominal / (the mean of the
// loops on either side of it), an estimate of the cell's time on a host
// that runs the loop at refNominal. The loop mixes the kinds of work the
// simulator's hot paths do: dependent integer arithmetic, pointer chasing
// beyond the private caches, a linear scan of a 2048-entry array like the
// replica directory's, and independent loads spread over 64 MiB. It is part
// of the benchmark, never of the simulator, so a change to the simulator
// cannot move it.

// refNominal is close to the reference loop's median time on the 2-vCPU
// Xeon VM the cell sizes were calibrated on, so normalized and wall times
// agree there on a typical minute.
const refNominal = 25 * time.Millisecond

// refEntry has the shape of a cache.Entry.
type refEntry struct {
	line    uint64
	state   uint8
	dirty   bool
	sharers uint64
	owner   int8
	lru     uint64
}

// The loop's data are global arrays of plain values: they live outside the
// Go heap, so they neither change the simulator's garbage-collection pacing
// nor get scanned. They are resident from the first loop on, so the peak
// RSS the benchmark reports leaves out refFootprintMiB.
var (
	refRing    [2 << 20]uint32 // one Sattolo cycle through every slot
	refRegion  [64 << 20]byte
	refEntries [2048]refEntry
	refOnce    sync.Once
	refSink    uint64
)

var refFootprintMiB = float64(unsafe.Sizeof(refRing)+unsafe.Sizeof(refRegion)+unsafe.Sizeof(refEntries)) / (1 << 20)

func refInit() {
	for i := range refRing {
		refRing[i] = uint32(i)
	}
	rng := rand.New(rand.NewSource(1))
	for i := len(refRing) - 1; i > 0; i-- {
		j := rng.Intn(i)
		refRing[i], refRing[j] = refRing[j], refRing[i]
	}
	for i := 0; i < len(refRegion); i += 4096 {
		refRegion[i] = byte(i >> 12)
	}
	for i := range refEntries {
		refEntries[i] = refEntry{line: uint64(i)*64 + 1<<40, state: 1, owner: -1}
	}
}

// refLoop times one pass of the reference loop.
func refLoop() time.Duration {
	refOnce.Do(refInit)
	t0 := time.Now()

	x := uint64(1)
	for i := 0; i < 2_500_000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		x ^= x >> 17
	}

	j := uint32(0)
	for i := 0; i < 100_000; i++ {
		j = refRing[j]
	}

	hits := 0
	for k := uint64(0); k < 2000; k++ {
		for i := range refEntries {
			if refEntries[i].line == k*64 && refEntries[i].state != 0 {
				hits++
				break
			}
		}
	}

	r, sum := uint64(88172645463325252), uint64(0)
	for i := 0; i < 500_000; i++ {
		r ^= r << 13
		r ^= r >> 7
		r ^= r << 17
		sum += uint64(refRegion[r%uint64(len(refRegion))])
	}

	refSink += x + uint64(j) + uint64(hits) + sum
	return time.Since(t0)
}
