package coherence

import (
	"testing"

	"dve/internal/topology"
)

// BenchmarkDirectoryLookup measures the home directory's entry path — the
// line index plus the slab dereference — over a populated directory,
// the lookup every coherence transaction starts with.
func BenchmarkDirectoryLookup(b *testing.B) {
	cfg := topology.Default(topology.ProtoBaseline)
	const lines = 1 << 14
	s, err := newSystem(&cfg)
	if err != nil {
		b.Fatal(err)
	}
	d := s.Dirs[0]
	step := topology.Line(cfg.LineSizeBytes)
	for i := 0; i < lines; i++ {
		d.entry(topology.Line(i) * step)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if e := d.entry(topology.Line(i&(lines-1)) * step); e.owner != -1 {
			b.Fatal("untouched entry must be unowned")
		}
	}
}

// BenchmarkDirectoryInsert measures first-touch tracking: index insert and
// slab append (both amortised over their growth), and the first-touch
// order log.
func BenchmarkDirectoryInsert(b *testing.B) {
	cfg := topology.Default(topology.ProtoBaseline)
	s, err := newSystem(&cfg)
	if err != nil {
		b.Fatal(err)
	}
	d := s.Dirs[0]
	step := topology.Line(cfg.LineSizeBytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.entry(topology.Line(i) * step)
	}
}
