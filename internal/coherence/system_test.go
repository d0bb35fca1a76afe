package coherence

import (
	"testing"

	"dve/internal/cache"
	"dve/internal/noc"
	"dve/internal/sim"
	"dve/internal/topology"
)

// newSystem builds cfg's system on a fresh partitioned engine whose
// partitions run on one worker (the test fakes below schedule across
// sockets directly).
func newSystem(cfg *topology.Config) (*System, error) {
	pe := sim.NewParallelEngine(cfg.Sockets, sim.Cycle(cfg.InterSocketCyc())+1)
	pe.SetWorkers(1)
	return NewPartitioned(cfg, pe)
}

func newSys(p topology.Protocol) *System {
	cfg := topology.Default(p)
	s, err := newSystem(&cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// access runs one memory operation to completion and returns its latency,
// measured on the issuing core's socket clock.
func access(t *testing.T, s *System, core int, write bool, a topology.Addr) sim.Cycle {
	t.Helper()
	eng := s.Engs[s.SocketOf(core)]
	start := eng.Now()
	done := false
	var end sim.Cycle
	s.Access(core, write, a, func() { done = true; end = eng.Now() })
	s.Drain()
	if !done {
		t.Fatalf("access to %#x never completed", a)
	}
	return end - start
}

func TestL1HitAfterFill(t *testing.T) {
	s := newSys(topology.ProtoBaseline)
	first := access(t, s, 0, false, 0)
	second := access(t, s, 0, false, 8) // same line
	if second >= first {
		t.Fatalf("L1 hit (%d cyc) not faster than cold miss (%d cyc)", second, first)
	}
	if second != sim.Cycle(s.Cfg.L1LatencyCyc) {
		t.Fatalf("L1 hit latency = %d, want %d", second, s.Cfg.L1LatencyCyc)
	}
	if s.Cnts[0].L1Hits != 1 || s.Cnts[0].L1Misses != 1 {
		t.Fatalf("L1 hits/misses = %d/%d", s.Cnts[0].L1Hits, s.Cnts[0].L1Misses)
	}
}

func TestLLCHitAcrossCoresSameSocket(t *testing.T) {
	s := newSys(topology.ProtoBaseline)
	access(t, s, 0, false, 0)
	misses := s.Cnts[0].LLCMisses
	access(t, s, 1, false, 0) // different core, same socket: LLC hit
	if s.Cnts[0].LLCMisses != misses {
		t.Fatal("second core's read missed the shared LLC")
	}
	if s.Cnts[0].LLCHits == 0 {
		t.Fatal("no LLC hit recorded")
	}
}

func TestRemoteAccessPaysLink(t *testing.T) {
	s := newSys(topology.ProtoBaseline)
	// Page 0 homes at socket 0; core 8 lives on socket 1.
	lat := access(t, s, 8, false, 0)
	if s.Link.Msgs() < 2 {
		t.Fatalf("remote access sent %d link messages, want >= 2", s.Link.Msgs())
	}
	if lat < 2*sim.Cycle(s.Cfg.InterSocketCyc()) {
		t.Fatalf("remote access latency %d below the link round trip", lat)
	}
	// Local access from socket 0 must not touch the link.
	s.Link.Reset()
	access(t, s, 0, false, 64)
	if s.Link.Msgs() != 0 {
		t.Fatal("local access crossed the socket link")
	}
}

func TestWriteGrantsExclusive(t *testing.T) {
	s := newSys(topology.ProtoBaseline)
	access(t, s, 0, true, 0)
	st, owner, _ := s.Dirs[0].Entry(s.AMap.LineOf(0))
	if st != cache.Modified || owner != 0 {
		t.Fatalf("after write: dir state %v owner %d, want M/0", st, owner)
	}
}

func TestReadAfterRemoteWriteFetchesFromOwner(t *testing.T) {
	s := newSys(topology.ProtoBaseline)
	access(t, s, 8, true, 0)  // socket 1 writes a socket-0-homed line
	access(t, s, 0, false, 0) // socket 0 reads it: 3-hop fetch, owner downgrades
	st, _, sharers := s.Dirs[0].Entry(s.AMap.LineOf(0))
	if st != cache.Owned {
		t.Fatalf("dir state %v after read of remote-owned line, want O (MOSI)", st)
	}
	if !sharers[0] {
		t.Fatal("reader not recorded as sharer")
	}
}

func TestWriteInvalidatesRemoteSharer(t *testing.T) {
	s := newSys(topology.ProtoBaseline)
	access(t, s, 8, false, 0) // socket 1 caches the line in S
	access(t, s, 0, true, 0)  // socket 0 writes: socket 1 must be invalidated
	if s.LLCs[1].HasLine(s.AMap.LineOf(0)) {
		t.Fatal("remote sharer survived an exclusive grant (SWMR violation)")
	}
}

func TestClassification(t *testing.T) {
	s := newSys(topology.ProtoBaseline)
	s.Classify = true
	access(t, s, 0, false, 0)   // GETS to I: private-read
	access(t, s, 8, false, 0)   // GETS to S: read-only
	access(t, s, 0, true, 4096) // GETX to I: private-read/write
	access(t, s, 8, true, 0)    // GETX to S: read/write
	access(t, s, 0, false, 0)   // GETS to M: read/write
	c := s.Counters()
	if c.PrivateRead != 1 || c.ReadOnly != 1 || c.PrivateReadWrite != 1 || c.ReadWrite != 2 {
		t.Fatalf("classes = %d/%d/%d/%d, want 1/1/1/2",
			c.PrivateRead, c.ReadOnly, c.ReadWrite, c.PrivateReadWrite)
	}
}

func TestDirtyEvictionWritesBack(t *testing.T) {
	s := newSys(topology.ProtoBaseline)
	access(t, s, 0, true, 0)
	// Walk enough lines mapping to the same LLC set to force the victim out.
	setStride := uint64(s.Cfg.LLCSizeBytes / s.Cfg.LLCWays)
	for i := 1; i <= s.Cfg.LLCWays+1; i++ {
		access(t, s, 0, false, topology.Addr(uint64(i)*setStride))
	}
	if s.MCs[0].Writes == 0 {
		t.Fatal("dirty LLC eviction never reached memory")
	}
	st, _, _ := s.Dirs[0].Entry(s.AMap.LineOf(0))
	if st == cache.Modified {
		t.Fatal("directory still records evicted line as Modified")
	}
}

func TestBaselineFaultIsDUE(t *testing.T) {
	s := newSys(topology.ProtoBaseline)
	s.MCs[0].FaultFn = func(a topology.Addr) bool { return true }
	access(t, s, 0, false, 0)
	if s.Cnts[0].DetectedUncorrect == 0 {
		t.Fatal("baseline fault not logged as DUE")
	}
	if s.Cnts[0].Recoveries != 0 {
		t.Fatal("baseline cannot recover without a replica")
	}
}

// fakeAgent records home-directory interactions for protocol-contract tests.
// It stands in at socket 1, the replica side of the socket-0-homed lines the
// tests touch, so its acks run on socket 1's partition.
type fakeAgent struct {
	sys         *System
	invs, fetch int
	undeny      int
	denyMode    bool
}

func (f *fakeAgent) LocalGETS(m *Miss)                      { m.Complete(false) }
func (f *fakeAgent) LocalGETX(m *Miss)                      { m.Complete(false) }
func (f *fakeAgent) LocalPUTM(l topology.Line, done func()) { done() }
func (f *fakeAgent) HomeInvalidate(l topology.Line, ack func()) {
	f.invs++
	f.sys.Engs[1].Schedule(1, ack)
}
func (f *fakeAgent) HomeUndeny(l topology.Line) { f.undeny++ }
func (f *fakeAgent) HomeFetch(l topology.Line, inv bool, ack func()) {
	f.fetch++
	f.sys.Engs[1].Schedule(1, ack)
}
func (f *fakeAgent) Drain(done func()) { done() }
func (f *fakeAgent) DenyMode() bool    { return f.denyMode }

func TestDenyModePushesOnPrivateWrite(t *testing.T) {
	s := newSys(topology.ProtoDeny)
	fa := &fakeAgent{sys: s, denyMode: true}
	s.SetReplicaAgent(1, fa)
	// Home-side write to an uncached socket-0 line: deny protocol must push.
	access(t, s, 0, true, 0)
	if fa.invs != 1 {
		t.Fatalf("deny push count = %d, want 1", fa.invs)
	}
	// Allow mode: no push when the agent is not a sharer.
	fa.denyMode = false
	access(t, s, 0, true, 4096)
	if fa.invs != 1 {
		t.Fatalf("allow mode pushed an invalidate to a non-sharer (count=%d)", fa.invs)
	}
}

func TestUndenyOnWriteback(t *testing.T) {
	s := newSys(topology.ProtoDeny)
	fa := &fakeAgent{sys: s, denyMode: true}
	s.SetReplicaAgent(1, fa)
	access(t, s, 0, true, 0)
	setStride := uint64(s.Cfg.LLCSizeBytes / s.Cfg.LLCWays)
	for i := 1; i <= s.Cfg.LLCWays+1; i++ {
		access(t, s, 0, false, topology.Addr(uint64(i)*setStride))
	}
	if fa.undeny == 0 {
		t.Fatal("writeback of a denied line never cleared the deny (RM leak)")
	}
	if s.Cnts[0].DualWritebacks == 0 {
		t.Fatal("replicated writeback did not update both copies")
	}
}

func TestGrantRegion(t *testing.T) {
	s := newSys(topology.ProtoAllow)
	fa := &fakeAgent{sys: s}
	s.SetReplicaAgent(1, fa)
	nLines := s.Cfg.RegionBytes / s.Cfg.LineSizeBytes
	if !s.Dirs[0].GrantRegion(0, nLines) {
		t.Fatal("region grant refused with no writers")
	}
	// A home-side writer in the region blocks the grant.
	access(t, s, 0, true, 64)
	if s.Dirs[0].GrantRegion(0, nLines) {
		t.Fatal("region granted despite a home-side writer")
	}
}

func TestHasReplicaFixedVsRMT(t *testing.T) {
	s := newSys(topology.ProtoDeny)
	if !s.HasReplica(0) {
		t.Fatal("fixed mapping must replicate everything")
	}
	s.ReplicaMap = mapperFunc(func(a topology.Addr) (topology.Addr, bool) {
		return 0, false
	})
	if s.HasReplica(0) {
		t.Fatal("empty RMT still reports replicas")
	}
	b := newSys(topology.ProtoBaseline)
	if b.HasReplica(0) {
		t.Fatal("baseline reports replicas")
	}
}

type mapperFunc func(topology.Addr) (topology.Addr, bool)

func (m mapperFunc) ReplicaAddr(a topology.Addr) (topology.Addr, bool) { return m(a) }

func TestMessageSizes(t *testing.T) {
	// Control and data message sizes from the evaluation methodology.
	if noc.CtrlBytes != 8 || noc.DataBytes != 72 {
		t.Fatalf("message sizes %d/%d, want 8/72", noc.CtrlBytes, noc.DataBytes)
	}
}

func TestScrubberFindsLatentErrors(t *testing.T) {
	s := newSys(topology.ProtoDeny)
	// Attach real replica-side agents so recovery can use the replica.
	fa := &fakeAgent{sys: s}
	s.SetReplicaAgent(0, fa)
	s.SetReplicaAgent(1, fa)
	// Touch some lines so the directory knows them.
	for i := 0; i < 8; i++ {
		access(t, s, 0, false, topology.Addr(i*4096))
	}
	// A latent transient error appears on one line; no demand access will
	// touch it again.
	bad := topology.Addr(0)
	hit := true
	s.MCs[0].FaultFn = func(a topology.Addr) bool {
		return hit && s.AMap.LineOf(a) == s.AMap.LineOf(bad)
	}
	sc := NewScrubber(s, 10_000, 4)
	sc.Start()
	// Drive the daemons for 100k cycles with one demanded no-op event.
	s.Engs[0].Schedule(100_000, func() {})
	s.Drain()
	if sc.ScrubbedLines == 0 {
		t.Fatal("scrubber never ran")
	}
	if s.Cnts[0].Recoveries == 0 {
		t.Fatal("patrol scrub never found the latent error")
	}
	hit = false // "repaired"
}

func TestKnownLinesDeterministicOrder(t *testing.T) {
	s := newSys(topology.ProtoBaseline)
	addrs := []topology.Addr{0, 16384, 8192, 24576} // socket-0-homed pages
	for _, a := range addrs {
		access(t, s, 0, false, a)
	}
	lines := s.Dirs[0].KnownLines()
	if len(lines) != len(addrs) {
		t.Fatalf("KnownLines = %d, want %d", len(lines), len(addrs))
	}
	for i, a := range addrs {
		if lines[i] != s.AMap.LineOf(a) {
			t.Fatalf("line %d = %#x, want first-touch order", i, lines[i])
		}
	}
}
