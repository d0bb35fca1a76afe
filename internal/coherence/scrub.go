package coherence

import (
	"dve/internal/sim"
	"dve/internal/telemetry"
	"dve/internal/topology"
)

// Scrubber implements patrol scrubbing: a background daemon that walks the
// allocated address space re-reading memory through the normal
// detect-and-recover path, so latent errors are found and repaired before a
// second failure can pair with them. The scrub interval is the window the
// Section IV reliability model's coincident-failure terms are defined over
// — schemes only lose data when failures coincide *within* it.
type Scrubber struct {
	sys      *System
	interval sim.Cycle
	batch    int
	cursor   []int

	// ScrubbedLines counts patrol reads issued.
	ScrubbedLines uint64
	running       bool
}

// NewScrubber creates a scrubber that reads batch lines per directory every
// interval cycles.
func NewScrubber(sys *System, interval sim.Cycle, batch int) *Scrubber {
	return &Scrubber{
		sys:      sys,
		interval: interval,
		batch:    batch,
		cursor:   make([]int, len(sys.Dirs)),
	}
}

// Start arms one patrol daemon per socket; each walks its own socket's
// directory on its own partition and runs until the end of the simulation
// without keeping the run alive.
func (s *Scrubber) Start() {
	if s.running {
		return
	}
	s.running = true
	for di := range s.sys.Dirs {
		s.arm(di)
	}
}

// arm schedules socket di's next patrol tick.
func (s *Scrubber) arm(di int) {
	s.sys.Engs[di].ScheduleDaemon(s.interval, func() { s.tick(di) })
}

// tick scrubs one batch of socket di's directory.
func (s *Scrubber) tick(di int) {
	// Re-arm before issuing the batch: the next tick is then sequenced
	// after every event this batch schedules at the same future cycle, so
	// repairs triggered by this interval's patrol reads are already applied
	// when the next tick re-reads the same lines (instead of the next tick
	// racing ahead of them in the event order).
	s.arm(di)
	d := s.sys.Dirs[di]
	lines := d.KnownLines()
	if len(lines) == 0 {
		return
	}
	for i := 0; i < s.batch; i++ {
		l := lines[s.cursor[di]%len(lines)]
		s.cursor[di]++
		s.ScrubbedLines++
		d.Scrub(l)
	}
}

// Scrub re-reads one line through the detection/recovery path. Errors found
// are corrected from the replica and the home copy repaired, exactly like a
// demand read (Section V-B2); the patrol read contends for DRAM like any
// other access.
func (d *HomeDir) Scrub(l topology.Line) {
	// Bypass the MSHR: patrol reads are independent of coherence state (the
	// memory copy is read as-is; a dirty cached copy simply makes the read
	// irrelevant, not incorrect, since recovery rewrites only detected-bad
	// cells with replica data of the same epoch).
	if tr := d.sys.Trace; tr != nil {
		tr.Point(telemetry.CompScrub, d.socket, "scrub", uint64(l))
	}
	d.readHomeMem(l, func() {})
}

// KnownLines returns the lines this directory has ever tracked, in first-
// touch order (deterministic).
func (d *HomeDir) KnownLines() []topology.Line { return d.lineOrder }
