package topology

import (
	"testing"
	"testing/quick"
)

func TestDefaultConfigTableII(t *testing.T) {
	c := Default(ProtoBaseline)
	if c.TotalCores() != 16 {
		t.Errorf("TotalCores = %d, want 16", c.TotalCores())
	}
	if c.ChannelsPerSkt != 1 {
		t.Errorf("baseline channels = %d, want 1", c.ChannelsPerSkt)
	}
	d := Default(ProtoDeny)
	if d.ChannelsPerSkt != 2 {
		t.Errorf("replicated channels = %d, want 2", d.ChannelsPerSkt)
	}
	if got := c.InterSocketCyc(); got != 150 {
		t.Errorf("50ns at 3GHz = %d cycles, want 150", got)
	}
	if c.Cycles(14.16) != 42 {
		t.Errorf("tCL cycles = %d, want 42", c.Cycles(14.16))
	}
}

func TestReplicated(t *testing.T) {
	for _, tc := range []struct {
		p    Protocol
		want bool
	}{
		{ProtoBaseline, false},
		{ProtoAllow, true},
		{ProtoDeny, true},
		{ProtoDynamic, true},
		{ProtoIntelMirror, false},
	} {
		c := Default(tc.p)
		if c.Replicated() != tc.want {
			t.Errorf("Replicated(%v) = %v, want %v", tc.p, c.Replicated(), tc.want)
		}
	}
}

func TestHomeSocketInterleave(t *testing.T) {
	c := Default(ProtoBaseline)
	m := NewAddrMap(&c)
	page := uint64(c.PageBytes)
	if m.HomeSocket(0) != 0 || m.HomeSocket(Addr(page)) != 1 || m.HomeSocket(Addr(2*page)) != 0 {
		t.Fatal("pages do not interleave round-robin across sockets")
	}
}

// The fixed-function mapping must be an involution (applying it twice returns
// the original page) and must always land on the opposite socket — the paper's
// f(p) = p + 1 - 2S pairs adjacent interleaved pages.
func TestReplicaMappingProperties(t *testing.T) {
	c := Default(ProtoAllow)
	m := NewAddrMap(&c)
	f := func(page uint32) bool {
		p := uint64(page)
		r := m.ReplicaPage(p)
		if m.ReplicaPage(r) != p {
			return false // not an involution
		}
		return r%2 != p%2 // opposite socket
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestReplicaAddrPreservesOffset(t *testing.T) {
	c := Default(ProtoAllow)
	m := NewAddrMap(&c)
	a := Addr(3*uint64(c.PageBytes) + 137)
	r := m.ReplicaAddr(a)
	if uint64(r)%uint64(c.PageBytes) != 137 {
		t.Fatalf("replica offset = %d, want 137", uint64(r)%uint64(c.PageBytes))
	}
	if m.HomeSocket(r) == m.HomeSocket(a) {
		t.Fatal("replica address on same socket as home")
	}
	if m.ReplicaAddr(r) != a {
		t.Fatal("ReplicaAddr is not an involution")
	}
}

// Replica mapping preserves the DRAM-internal coordinates exactly (same
// channel/bank/row on the other socket), per footnote 3: the mapping
// "retains the same DRAM internal mapping".
func TestReplicaPreservesDRAMCoord(t *testing.T) {
	c := Default(ProtoAllow)
	m := NewAddrMap(&c)
	f := func(page uint16, off uint16) bool {
		a := Addr(uint64(page)*uint64(c.PageBytes) + uint64(off)%uint64(c.PageBytes))
		r := m.ReplicaAddr(a)
		return m.Decode(a) == m.Decode(r)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// The page interleave must not alias with the bank stripe: a socket's
// address stream has to reach every bank (the bug this test pinned down:
// socket-0 pages only ever touched half the banks).
func TestSocketStreamCoversAllBanks(t *testing.T) {
	for _, p := range []Protocol{ProtoBaseline, ProtoDeny} {
		c := Default(p)
		m := NewAddrMap(&c)
		seen := map[int]bool{}
		for a := Addr(0); a < Addr(1<<22); a += Addr(c.PageBytes) {
			if m.HomeSocket(a) != 0 {
				continue
			}
			for off := 0; off < c.PageBytes; off += c.LineSizeBytes {
				seen[m.Decode(a+Addr(off)).Bank] = true
			}
		}
		if len(seen) != c.BanksPerRank {
			t.Errorf("%v: socket-0 stream reaches %d/%d banks", p, len(seen), c.BanksPerRank)
		}
	}
}

func TestLineOf(t *testing.T) {
	c := Default(ProtoBaseline)
	m := NewAddrMap(&c)
	if m.LineOf(Addr(130)) != Line(128) {
		t.Fatalf("LineOf(130) = %d, want 128", m.LineOf(Addr(130)))
	}
	if m.LineOf(Addr(64)) != Line(64) {
		t.Fatalf("LineOf(64) = %d, want 64", m.LineOf(Addr(64)))
	}
}

func TestDecodeRanges(t *testing.T) {
	c := Default(ProtoDeny) // 2 channels
	m := NewAddrMap(&c)
	seenCh := map[int]bool{}
	seenBank := map[int]bool{}
	for a := Addr(0); a < Addr(1<<22); a += Addr(c.LineSizeBytes) {
		d := m.Decode(a)
		if d.Channel < 0 || d.Channel >= c.ChannelsPerSkt {
			t.Fatalf("channel %d out of range", d.Channel)
		}
		if d.Bank < 0 || d.Bank >= c.BanksPerRank {
			t.Fatalf("bank %d out of range", d.Bank)
		}
		seenCh[d.Channel] = true
		seenBank[d.Bank] = true
	}
	if len(seenCh) != c.ChannelsPerSkt {
		t.Errorf("only %d channels used, want %d", len(seenCh), c.ChannelsPerSkt)
	}
	if len(seenBank) != c.BanksPerRank {
		t.Errorf("only %d banks used, want %d", len(seenBank), c.BanksPerRank)
	}
}

func TestProtocolString(t *testing.T) {
	names := map[Protocol]string{
		ProtoBaseline:    "baseline",
		ProtoAllow:       "allow",
		ProtoDeny:        "deny",
		ProtoDynamic:     "dynamic",
		ProtoIntelMirror: "intel-mirror++",
		Protocol(99):     "unknown",
	}
	for p, want := range names {
		if p.String() != want {
			t.Errorf("%d.String() = %q, want %q", p, p.String(), want)
		}
	}
}
