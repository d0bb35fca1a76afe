package trace

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	idve "dve/internal/dve"
	"dve/internal/topology"
	"dve/internal/workload"
)

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	tw, err := NewWriter(&buf, 2)
	if err != nil {
		t.Fatal(err)
	}
	recs := []Record{
		{Kind: workload.Read, Tid: 0, Compute: 3, Addr: 0x1000},
		{Kind: workload.Write, Tid: 1, Compute: 0, Addr: 0x2040},
		{Kind: workload.Barrier, Tid: 0},
		{Kind: workload.Read, Tid: 1, Compute: 65535, Addr: 1 << 41},
	}
	for _, r := range recs {
		if err := tw.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	if tw.Ops() != uint64(len(recs)) {
		t.Fatalf("Ops = %d, want %d", tw.Ops(), len(recs))
	}

	tr, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Threads != 2 {
		t.Fatalf("threads = %d, want 2", tr.Threads)
	}
	if tr.Ops != 0 {
		t.Fatalf("header ops = %d, want 0 (buffers cannot seek back)", tr.Ops)
	}
	for i, want := range recs {
		got, err := tr.Next()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("record %d = %+v, want %+v", i, got, want)
		}
	}
	if _, err := tr.Next(); err != io.EOF {
		t.Fatalf("expected EOF, got %v", err)
	}
}

func TestReaderRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("NOPE"),
		[]byte("DVETxxxxxxxxxxxx"), // wrong version bytes
	}
	for i, c := range cases {
		if _, err := NewReader(bytes.NewReader(c)); err == nil {
			t.Errorf("case %d: bad header accepted", i)
		}
	}
}

func TestReaderRejectsTruncatedRecord(t *testing.T) {
	var buf bytes.Buffer
	tw, _ := NewWriter(&buf, 1)
	tw.Write(Record{Kind: workload.Read, Addr: 64})
	tw.Flush()
	data := buf.Bytes()[:buf.Len()-5] // chop mid-record
	tr, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Next(); err == nil {
		t.Fatal("truncated record accepted")
	}
}

func TestReaderRejectsBadKind(t *testing.T) {
	var buf bytes.Buffer
	tw, _ := NewWriter(&buf, 1)
	tw.Write(Record{Kind: workload.Read, Addr: 64})
	tw.Flush()
	data := buf.Bytes()
	data[16] = 99 // first record's kind byte
	tr, _ := NewReader(bytes.NewReader(data))
	if _, err := tr.Next(); err == nil {
		t.Fatal("invalid kind accepted")
	}
}

func TestCaptureLoadReplayMatchesGenerator(t *testing.T) {
	spec, _ := workload.ByName("fft", 4)
	var buf bytes.Buffer
	if _, err := Capture(&buf, spec, 4000); err != nil {
		t.Fatal(err)
	}
	src, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if src.Threads() != 4 {
		t.Fatalf("threads = %d", src.Threads())
	}
	// The trace's per-thread streams equal the generator's.
	gen, _ := workload.NewGenerator(spec)
	for i := 0; i < len(src.perThread[0]); i++ {
		want := gen.Next(0)
		if want.Compute > 0xFFFF {
			want.Compute = 0xFFFF
		}
		got := src.Next(0)
		if got != want {
			t.Fatalf("thread 0 op %d: %+v vs generator %+v", i, got, want)
		}
	}
}

func TestSourceWraps(t *testing.T) {
	spec, _ := workload.ByName("lu", 2)
	var buf bytes.Buffer
	if _, err := Capture(&buf, spec, 10); err != nil {
		t.Fatal(err)
	}
	src, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	n := len(src.perThread[0])
	first := src.Next(0)
	for i := 1; i < n; i++ {
		src.Next(0)
	}
	if again := src.Next(0); again != first {
		t.Fatal("trace source did not wrap to the beginning")
	}
}

func TestLoadRejectsEmptyThread(t *testing.T) {
	var buf bytes.Buffer
	tw, _ := NewWriter(&buf, 2)
	tw.Write(Record{Kind: workload.Read, Tid: 0, Addr: 64})
	tw.Flush()
	_, err := Load(bytes.NewReader(buf.Bytes()))
	if err == nil {
		t.Fatal("trace with an empty thread accepted")
	}
	if !strings.Contains(err.Error(), "re-capture") {
		t.Fatalf("error %q does not name the remedy", err)
	}
}

// Capture must refuse up front to write a trace that Load would reject:
// fewer ops than threads leaves at least one thread with no records.
func TestCaptureRejectsFewerOpsThanThreads(t *testing.T) {
	spec, _ := workload.ByName("fft", 4)
	var buf bytes.Buffer
	_, err := Capture(&buf, spec, 3)
	if err == nil {
		t.Fatal("under-length capture accepted")
	}
	if !strings.Contains(err.Error(), "ops >= threads") {
		t.Fatalf("error %q does not name the remedy", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("%d bytes written before the rejection", buf.Len())
	}
}

// A spec whose compute gaps exceed the format's u16 field must report the
// clamps instead of silently flattening the trace's compute density.
func TestCaptureReportsClampedCompute(t *testing.T) {
	spec := workload.Spec{
		Name: "hot", Threads: 2, FootprintMB: 16,
		PrivFrac: 0.5, SharedROFrac: 0.4, Locality: 0.5,
		ComputePerOp: 60_000, // draws up to 120_000 > 0xFFFF
		Seed:         7,
	}
	var buf bytes.Buffer
	st, err := Capture(&buf, spec, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if st.Ops != 2000 {
		t.Fatalf("Ops = %d, want 2000", st.Ops)
	}
	if st.ClampedCompute == 0 {
		t.Fatal("no clamps reported for a spec with >u16 compute gaps")
	}
	// Every clamped record reads back at exactly the ceiling.
	src, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	ceil := 0
	for tid := 0; tid < 2; tid++ {
		for i := 0; i < len(src.perThread[tid]); i++ {
			if op := src.Next(tid); op.Compute == 0xFFFF {
				ceil++
			}
		}
	}
	if uint64(ceil) < st.ClampedCompute {
		t.Fatalf("%d records at the ceiling, but %d clamps reported", ceil, st.ClampedCompute)
	}
	// A clamp-free spec reports zero.
	clean, _ := workload.ByName("fft", 2)
	var buf2 bytes.Buffer
	st2, err := Capture(&buf2, clean, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if st2.ClampedCompute != 0 {
		t.Fatalf("clamp-free capture reported %d clamps", st2.ClampedCompute)
	}
}

// Regression for the silent-clamp bug: a clamp-free capture replayed through
// the simulator must reproduce the live generator run's protocol counters
// exactly. The replay's external Source forces one worker; the live run
// uses the default (serial) engine mode.
func TestReplayCountersMatchLive(t *testing.T) {
	spec, _ := workload.ByName("stencil", 16)
	var buf bytes.Buffer
	st, err := Capture(&buf, spec, 120_000)
	if err != nil {
		t.Fatal(err)
	}
	if st.ClampedCompute != 0 {
		t.Fatalf("capture clamped %d compute gaps; pick a cooler workload", st.ClampedCompute)
	}
	src, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	rc := idve.RunConfig{
		Cfg:        topology.Default(topology.ProtoDeny),
		WarmupOps:  20_000,
		MeasureOps: 60_000,
	}
	live, err := idve.Run(spec, rc)
	if err != nil {
		t.Fatal(err)
	}
	rc.Source = src
	replay, err := idve.Run(spec, rc)
	if err != nil {
		t.Fatal(err)
	}
	if live.Cycles != replay.Cycles {
		t.Fatalf("cycles diverge: live %d, replay %d", live.Cycles, replay.Cycles)
	}
	if !reflect.DeepEqual(live.Counters, replay.Counters) {
		t.Fatalf("protocol counters diverge between live and replay runs:\nlive:   %+v\nreplay: %+v",
			live.Counters, replay.Counters)
	}
}

// End-to-end: the simulator produces identical results when driven by a
// captured trace and by the live generator it was captured from.
func TestSimulatorReplayEquivalence(t *testing.T) {
	spec, _ := workload.ByName("stencil", 16)
	var buf bytes.Buffer
	if _, err := Capture(&buf, spec, 120_000); err != nil {
		t.Fatal(err)
	}
	src, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	rc := idve.RunConfig{
		Cfg:        topology.Default(topology.ProtoDeny),
		WarmupOps:  20_000,
		MeasureOps: 60_000,
	}
	live, err := idve.Run(spec, rc)
	if err != nil {
		t.Fatal(err)
	}
	rc.Source = src
	replay, err := idve.Run(spec, rc)
	if err != nil {
		t.Fatal(err)
	}
	// The trace interleaves threads round-robin exactly like the runner's
	// demand order only when per-thread progress matches; cycle counts can
	// differ slightly because compute jitter draws differ — but both runs
	// must be plausible and deterministic.
	if replay.Cycles == 0 || live.Cycles == 0 {
		t.Fatal("zero-cycle run")
	}
	ratio := float64(replay.Cycles) / float64(live.Cycles)
	if ratio < 0.7 || ratio > 1.4 {
		t.Fatalf("replay diverges from live run: %d vs %d cycles", replay.Cycles, live.Cycles)
	}
}

func TestNewWriterRejectsBadThreadCounts(t *testing.T) {
	var buf bytes.Buffer
	for _, n := range []int{0, -1, 256, 10_000} {
		if _, err := NewWriter(&buf, n); err == nil {
			t.Errorf("thread count %d accepted; tids are one byte", n)
		}
	}
	if _, err := NewWriter(&buf, 255); err != nil {
		t.Fatalf("thread count 255 rejected: %v", err)
	}
}

func TestWriteRejectsOutOfRangeTid(t *testing.T) {
	var buf bytes.Buffer
	tw, err := NewWriter(&buf, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := tw.Write(Record{Kind: workload.Read, Tid: 2, Addr: 64}); err == nil {
		t.Fatal("tid beyond the declared thread count accepted")
	}
	if tw.Ops() != 0 {
		t.Fatal("rejected record counted")
	}
}

// Close must seek back and fix up the header's op count when the
// destination is a file — the behaviour the header format promises.
func TestCloseFixesUpHeaderOpsOnFiles(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fixup.trc")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	tw, err := NewWriter(f, 3)
	if err != nil {
		t.Fatal(err)
	}
	const n = 7
	for i := 0; i < n; i++ {
		if err := tw.Write(Record{Kind: workload.Read, Tid: uint8(i % 3), Addr: topology.Addr(i * 64)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	g, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	tr, err := NewReader(g)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Ops != n {
		t.Fatalf("header ops = %d after Close, want %d", tr.Ops, n)
	}
	// The records themselves are untouched by the fixup.
	for i := 0; i < n; i++ {
		rec, err := tr.Next()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if rec.Addr != topology.Addr(i*64) {
			t.Fatalf("record %d addr = %#x", i, rec.Addr)
		}
	}
	if _, err := tr.Next(); err != io.EOF {
		t.Fatalf("want EOF after %d records, got %v", n, err)
	}
}

// Close on a non-seekable destination keeps the 0 = unknown marker and
// still flushes everything.
func TestCloseOnBufferKeepsUnknownOps(t *testing.T) {
	var buf bytes.Buffer
	tw, err := NewWriter(&buf, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := tw.Write(Record{Kind: workload.Read, Addr: 64}); err != nil {
		t.Fatal(err)
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	tr, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Ops != 0 {
		t.Fatalf("header ops = %d, want 0 for a pipe-style stream", tr.Ops)
	}
}

// Capture to a file produces a trace whose header already knows its length.
func TestCaptureFixesUpHeader(t *testing.T) {
	spec, _ := workload.ByName("fft", 4)
	path := filepath.Join(t.TempDir(), "fft.trc")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	const n = 1000
	st, err := Capture(f, spec, n)
	if err != nil {
		t.Fatal(err)
	}
	if st.Ops != n {
		t.Fatalf("CaptureStats.Ops = %d, want %d", st.Ops, n)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	g, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	tr, err := NewReader(g)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Ops != n {
		t.Fatalf("captured header ops = %d, want %d", tr.Ops, n)
	}
}
