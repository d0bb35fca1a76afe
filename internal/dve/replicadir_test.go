package dve

import (
	"testing"

	"dve/internal/coherence"
	"dve/internal/sim"
	"dve/internal/topology"
)

// Direct unit tests of the replica directory against a real system, driving
// individual accesses rather than whole workloads.

// newPartitionedSystem builds cfg's system on a fresh partitioned engine
// whose partitions run on one worker (the tests drive both sockets' replica
// directories directly).
func newPartitionedSystem(cfg *topology.Config) (*coherence.System, error) {
	pe := sim.NewParallelEngine(cfg.Sockets, sim.Cycle(cfg.InterSocketCyc())+1)
	pe.SetWorkers(1)
	return coherence.NewPartitioned(cfg, pe)
}

func newSystem(t *testing.T, p topology.Protocol, mode Mode) (*coherence.System, []*ReplicaDir) {
	t.Helper()
	cfg := topology.Default(p)
	sys, err := newPartitionedSystem(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	rds := []*ReplicaDir{New(sys, 0, mode), New(sys, 1, mode)}
	return sys, rds
}

func do(t *testing.T, sys *coherence.System, core int, write bool, a topology.Addr) {
	t.Helper()
	ok := false
	sys.Access(core, write, a, func() { ok = true })
	sys.Drain()
	if !ok {
		t.Fatalf("access %#x never completed", a)
	}
}

// remoteAddr returns an address homed on socket 0 (so cores of socket 1 are
// replica-side requesters).
const remoteAddr = topology.Addr(0)

func TestDenyFirstReadIsLinkFree(t *testing.T) {
	sys, _ := newSystem(t, topology.ProtoDeny, Deny)
	sys.Link.Reset()
	// Core 8 (socket 1) reads a socket-0-homed line: under deny, absence of
	// an entry means readable — zero link messages.
	do(t, sys, 8, false, remoteAddr)
	if sys.Link.Msgs() != 0 {
		t.Fatalf("deny first read crossed the link (%d msgs)", sys.Link.Msgs())
	}
	if sys.Counters().ReplicaReads != 1 {
		t.Fatalf("replica reads = %d, want 1", sys.Counters().ReplicaReads)
	}
}

func TestAllowFirstReadPullsPermission(t *testing.T) {
	sys, _ := newSystem(t, topology.ProtoAllow, Allow)
	sys.Link.Reset()
	do(t, sys, 8, false, remoteAddr)
	// Allow must ask home: one control message each way.
	if sys.Link.Msgs() != 2 {
		t.Fatalf("allow first read sent %d link msgs, want 2 (ctrl pull)", sys.Link.Msgs())
	}
	// But the data itself came from the local replica.
	if sys.Counters().ReplicaReads != 1 {
		t.Fatalf("replica reads = %d, want 1", sys.Counters().ReplicaReads)
	}
	// Second read: the entry is cached; fully local.
	msgs := sys.Link.Msgs()
	do(t, sys, 9, false, remoteAddr) // other core, same socket, L1 miss, LLC hit
	do(t, sys, 8, false, remoteAddr+64)
	_ = msgs
}

func TestSpeculativeReadAccounting(t *testing.T) {
	sys, _ := newSystem(t, topology.ProtoAllow, Allow)
	do(t, sys, 8, false, remoteAddr)
	if sys.Counters().SpecIssued != 1 {
		t.Fatalf("spec issued = %d, want 1", sys.Counters().SpecIssued)
	}
	if sys.Counters().SpecSquashed != 0 {
		t.Fatalf("clean pull squashed %d", sys.Counters().SpecSquashed)
	}
	// Make the home side dirty; the next replica-side read must squash its
	// speculative local read (data ships over the link).
	do(t, sys, 0, true, remoteAddr+128)
	do(t, sys, 8, false, remoteAddr+128)
	if sys.Counters().SpecSquashed != 1 {
		t.Fatalf("squashed = %d, want 1 (home-dirty pull)", sys.Counters().SpecSquashed)
	}
}

func TestNoSpeculationWhenDisabled(t *testing.T) {
	cfg := topology.Default(topology.ProtoAllow)
	cfg.SpeculativeReads = false
	sys, err := newPartitionedSystem(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	New(sys, 0, Allow)
	New(sys, 1, Allow)
	do(t, sys, 8, false, remoteAddr)
	if sys.Counters().SpecIssued != 0 {
		t.Fatal("speculation issued despite being disabled")
	}
}

func TestReplicaSideWriteSerializesAtHome(t *testing.T) {
	sys, _ := newSystem(t, topology.ProtoDeny, Deny)
	sys.Link.Reset()
	do(t, sys, 8, true, remoteAddr) // replica-side write
	if sys.Link.Msgs() < 2 {
		t.Fatal("replica-side write did not consult the home directory")
	}
	// The home directory now records the replica side as owner.
	st, owner, _ := sys.Dirs[0].Entry(sys.AMap.LineOf(remoteAddr))
	if st.String() != "M" || owner != 1 {
		t.Fatalf("home dir after replica-side write: %v/%d, want M/1", st, owner)
	}
}

func TestDualWritebackOnReplicaEviction(t *testing.T) {
	sys, _ := newSystem(t, topology.ProtoDeny, Deny)
	do(t, sys, 8, true, remoteAddr)
	// Force the dirty line out of socket 1's LLC.
	setStride := uint64(sys.Cfg.LLCSizeBytes / sys.Cfg.LLCWays)
	for i := 1; i <= sys.Cfg.LLCWays+1; i++ {
		do(t, sys, 8, false, remoteAddr+topology.Addr(uint64(i)*setStride*2))
	}
	if sys.Counters().DualWritebacks == 0 {
		t.Fatal("replica-side dirty eviction skipped the dual writeback")
	}
	// Both memory controllers saw the write.
	if sys.MCs[0].Writes == 0 || sys.MCs[1].Writes == 0 {
		t.Fatalf("writes reached %d/%d controllers", sys.MCs[0].Writes, sys.MCs[1].Writes)
	}
}

func TestDenyRMBlocksReplicaRead(t *testing.T) {
	sys, _ := newSystem(t, topology.ProtoDeny, Deny)
	// Home-side write installs RM at the replica directory.
	do(t, sys, 0, true, remoteAddr)
	sys.Link.Reset()
	before := sys.Counters().ReplicaReads
	// Replica-side read must fetch through home (RM: replica stale).
	do(t, sys, 8, false, remoteAddr)
	if sys.Counters().ReplicaReads != before {
		t.Fatal("stale replica served a read while RM")
	}
	if sys.Link.Msgs() == 0 {
		t.Fatal("RM read did not go to home")
	}
}

func TestModeSwitchPreservesSafety(t *testing.T) {
	sys, rds := newSystem(t, topology.ProtoDeny, Deny)
	// Home side holds a line dirty.
	do(t, sys, 0, true, remoteAddr)
	// Switch both replica directories to allow.
	pending := 2
	for _, rd := range rds {
		rd.SetMode(Allow, func() { pending-- })
	}
	sys.Drain()
	if pending != 0 {
		t.Fatal("mode switch never completed")
	}
	if rds[1].Mode() != Allow {
		t.Fatal("mode not switched")
	}
	// A replica-side read after the switch must NOT serve stale replica
	// data: allow mode requires a pull, which fetches from the dirty owner.
	before := sys.Counters().ReplicaReads
	do(t, sys, 8, false, remoteAddr)
	if sys.Counters().ReplicaReads != before {
		t.Fatal("allow served the replica for a home-dirty line after a mode switch")
	}
	// And switching back to deny rebuilds the RM set from home state.
	pending = 2
	for _, rd := range rds {
		rd.SetMode(Deny, func() { pending-- })
	}
	sys.Drain()
	if pending != 0 {
		t.Fatal("switch back never completed")
	}
}

func TestCoarseGrainRegionGrantAndInvalidate(t *testing.T) {
	cfg := topology.Default(topology.ProtoAllow)
	cfg.CoarseGrain = true
	sys, err := newPartitionedSystem(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	New(sys, 0, Allow)
	New(sys, 1, Allow)

	// First replica-side read acquires a whole-region grant.
	do(t, sys, 8, false, remoteAddr)
	misses := sys.Counters().ReplicaDirMisses
	// Another line of the same 4KB region: region hit, no second pull.
	do(t, sys, 8, false, remoteAddr+640)
	if sys.Counters().ReplicaDirMisses != misses {
		t.Fatal("second line of a granted region missed")
	}
	// A home-side write anywhere in the region revokes it.
	do(t, sys, 0, true, remoteAddr+128)
	do(t, sys, 8, false, remoteAddr+1280)
	if sys.Counters().ReplicaDirMisses == misses {
		t.Fatal("region survived a home-side exclusive request")
	}
}

func TestOracularNeverWorseAccounting(t *testing.T) {
	cfg := topology.Default(topology.ProtoAllow)
	cfg.Oracular = true
	sys, err := newPartitionedSystem(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	New(sys, 0, Allow)
	New(sys, 1, Allow)
	sys.Link.Reset()
	do(t, sys, 8, false, remoteAddr)
	// Oracle read of a clean line: no link traffic at all.
	if sys.Link.Msgs() != 0 {
		t.Fatalf("oracle clean read crossed the link (%d msgs)", sys.Link.Msgs())
	}
	// But a home-dirty line still pays the unavoidable fetch.
	do(t, sys, 0, true, remoteAddr+128)
	sys.Link.Reset()
	do(t, sys, 8, false, remoteAddr+128)
	if sys.Link.Msgs() == 0 {
		t.Fatal("oracle read of a dirty line cannot be free")
	}
}
