// Package trace defines a compact binary trace format for multi-threaded
// memory-access traces — the role Prism/SynchroTrace files play in the
// paper's methodology. Traces capture per-thread streams of reads, writes,
// compute gaps, and barrier synchronization, and can be produced from the
// synthetic generators (for archiving an exact experiment input) or from
// any external tool, then replayed through the simulator.
//
// Format (little-endian):
//
//	header:  magic "DVET" | u16 version | u16 threads | u64 ops
//	record:  u8 kind | u8 tid | u16 compute | u64 addr
//
// The header's op count is written as 0 (unknown) when the stream starts;
// Close seeks back and fixes it up when the destination is an
// io.WriteSeeker (a pipe keeps 0). Thread ids are a single byte, so a trace
// holds at most 255 threads — NewWriter rejects larger machines instead of
// silently truncating tids. Barrier records have kind 2 and no meaningful
// addr/compute. Records are interleaved in global issue order; replay
// preserves per-thread order.
package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"dve/internal/topology"
	"dve/internal/workload"
)

const (
	magic   = "DVET"
	version = 1
)

// Record is one trace event.
type Record struct {
	Kind    workload.OpKind
	Tid     uint8
	Compute uint16
	Addr    topology.Addr
}

// MaxThreads is the largest thread count the record format can address
// (tids are a single byte).
const MaxThreads = 255

// opsOffset is the byte offset of the header's u64 op count.
const opsOffset = 8 // magic(4) + version(2) + threads(2)

// Writer streams records to an underlying writer.
type Writer struct {
	w       *bufio.Writer
	dst     io.Writer // unbuffered destination, for the Close fixup
	threads int
	ops     uint64
	started bool
}

// NewWriter creates a trace writer for the given thread count; counts
// outside [1, MaxThreads] are rejected because a record's tid is one byte
// and silent truncation would merge distinct threads' streams. The header
// is written lazily on the first record with an op count of 0 (unknown);
// Close fixes the count up when w is an io.WriteSeeker.
func NewWriter(w io.Writer, threads int) (*Writer, error) {
	if threads < 1 || threads > MaxThreads {
		return nil, fmt.Errorf("trace: thread count %d outside [1, %d]", threads, MaxThreads)
	}
	return &Writer{w: bufio.NewWriter(w), dst: w, threads: threads}, nil
}

func (tw *Writer) writeHeader(ops uint64) error {
	if _, err := tw.w.WriteString(magic); err != nil {
		return err
	}
	var hdr [12]byte
	binary.LittleEndian.PutUint16(hdr[0:], version)
	binary.LittleEndian.PutUint16(hdr[2:], uint16(tw.threads))
	binary.LittleEndian.PutUint64(hdr[4:], ops)
	_, err := tw.w.Write(hdr[:])
	return err
}

// Write appends one record. The record's Tid must be within the writer's
// declared thread count.
func (tw *Writer) Write(r Record) error {
	if int(r.Tid) >= tw.threads {
		return fmt.Errorf("trace: record tid %d out of range for %d threads", r.Tid, tw.threads)
	}
	if !tw.started {
		tw.started = true
		if err := tw.writeHeader(0); err != nil {
			return err
		}
	}
	var buf [12]byte
	buf[0] = byte(r.Kind)
	buf[1] = r.Tid
	binary.LittleEndian.PutUint16(buf[2:], r.Compute)
	binary.LittleEndian.PutUint64(buf[4:], uint64(r.Addr))
	if _, err := tw.w.Write(buf[:]); err != nil {
		return err
	}
	tw.ops++
	return nil
}

// Flush completes the stream.
func (tw *Writer) Flush() error {
	if !tw.started {
		tw.started = true
		if err := tw.writeHeader(0); err != nil {
			return err
		}
	}
	return tw.w.Flush()
}

// Close flushes the stream and, when the destination supports seeking,
// rewrites the header's op count with the number of records written (the
// fixup the header format promises). Streams to pipes keep the 0 = unknown
// marker. The writer must not be used after Close.
func (tw *Writer) Close() error {
	if err := tw.Flush(); err != nil {
		return err
	}
	ws, ok := tw.dst.(io.WriteSeeker)
	if !ok {
		return nil
	}
	if _, err := ws.Seek(opsOffset, io.SeekStart); err != nil {
		return fmt.Errorf("trace: header fixup: %w", err)
	}
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], tw.ops)
	if _, err := ws.Write(b[:]); err != nil {
		return fmt.Errorf("trace: header fixup: %w", err)
	}
	if _, err := ws.Seek(0, io.SeekEnd); err != nil {
		return fmt.Errorf("trace: header fixup: %w", err)
	}
	return nil
}

// Ops returns the number of records written.
func (tw *Writer) Ops() uint64 { return tw.ops }

// Reader decodes a trace stream.
type Reader struct {
	r       *bufio.Reader
	Threads int
	// Ops is the header's record count: 0 means unknown (the producer could
	// not seek back to fix up the header).
	Ops uint64
}

// NewReader validates the header and returns a reader.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReader(r)
	head := make([]byte, 4+12)
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("trace: short header: %w", err)
	}
	if string(head[:4]) != magic {
		return nil, fmt.Errorf("trace: bad magic %q", head[:4])
	}
	if v := binary.LittleEndian.Uint16(head[4:]); v != version {
		return nil, fmt.Errorf("trace: unsupported version %d", v)
	}
	threads := int(binary.LittleEndian.Uint16(head[6:]))
	if threads == 0 {
		return nil, fmt.Errorf("trace: zero threads")
	}
	if threads > MaxThreads {
		return nil, fmt.Errorf("trace: thread count %d exceeds format limit %d", threads, MaxThreads)
	}
	return &Reader{r: br, Threads: threads, Ops: binary.LittleEndian.Uint64(head[8:])}, nil
}

// Next returns the next record; io.EOF ends the stream.
func (tr *Reader) Next() (Record, error) {
	var buf [12]byte
	if _, err := io.ReadFull(tr.r, buf[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return Record{}, fmt.Errorf("trace: truncated record: %w", err)
		}
		return Record{}, err
	}
	k := workload.OpKind(buf[0])
	if k > workload.Barrier {
		return Record{}, fmt.Errorf("trace: invalid record kind %d", buf[0])
	}
	return Record{
		Kind:    k,
		Tid:     buf[1],
		Compute: binary.LittleEndian.Uint16(buf[2:]),
		Addr:    topology.Addr(binary.LittleEndian.Uint64(buf[4:])),
	}, nil
}

// CaptureStats reports what a Capture wrote and how faithfully.
type CaptureStats struct {
	// Ops is the number of records written.
	Ops uint64
	// ClampedCompute counts records whose compute gap exceeded the format's
	// u16 field and was saturated to 0xFFFF. A nonzero count means a replay
	// runs hotter (less compute between accesses) than the generator; tools
	// surface it so the loss is never silent.
	ClampedCompute uint64
}

// Capture materialises ops operations of a synthetic workload into a trace,
// issuing threads round-robin (the global order replay will preserve). It
// requires ops >= spec.Threads: fewer would leave some thread with no
// records, producing a trace Load rejects.
func Capture(w io.Writer, spec workload.Spec, ops uint64) (CaptureStats, error) {
	var st CaptureStats
	if ops < uint64(spec.Threads) {
		return st, fmt.Errorf("trace: %d ops cover only %d of %d threads; capture at least one op per thread (ops >= threads)",
			ops, ops, spec.Threads)
	}
	gen, err := workload.NewGenerator(spec)
	if err != nil {
		return st, err
	}
	tw, err := NewWriter(w, spec.Threads)
	if err != nil {
		return st, err
	}
	tid := 0
	for i := uint64(0); i < ops; i++ {
		op := gen.Next(tid)
		comp := op.Compute
		if comp > 0xFFFF {
			comp = 0xFFFF
			st.ClampedCompute++
		}
		if err := tw.Write(Record{
			Kind:    op.Kind,
			Tid:     uint8(tid),
			Compute: uint16(comp),
			Addr:    op.Addr,
		}); err != nil {
			return st, err
		}
		tid = (tid + 1) % spec.Threads
	}
	st.Ops = tw.Ops()
	// Close fixes up the header's op count when w can seek (files), so
	// tools can size replays without scanning the whole trace.
	return st, tw.Close()
}

// Source adapts a fully loaded trace into per-thread streams for the
// simulator's runner: Next(tid) returns that thread's next operation,
// cycling when the trace is exhausted (so a short trace can drive a long
// run, like the paper's ROI looping).
type Source struct {
	perThread [][]workload.Op
	pos       []int
}

// Load reads an entire trace into a replayable Source.
func Load(r io.Reader) (*Source, error) {
	tr, err := NewReader(r)
	if err != nil {
		return nil, err
	}
	s := &Source{
		perThread: make([][]workload.Op, tr.Threads),
		pos:       make([]int, tr.Threads),
	}
	for {
		rec, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if int(rec.Tid) >= tr.Threads {
			return nil, fmt.Errorf("trace: record tid %d out of range", rec.Tid)
		}
		s.perThread[rec.Tid] = append(s.perThread[rec.Tid], workload.Op{
			Kind:    rec.Kind,
			Addr:    rec.Addr,
			Compute: int(rec.Compute),
		})
	}
	for t, ops := range s.perThread {
		if len(ops) == 0 {
			return nil, fmt.Errorf("trace: thread %d has no operations (re-capture with ops >= threads so every thread gets at least one record)", t)
		}
	}
	return s, nil
}

// Threads returns the trace's thread count.
func (s *Source) Threads() int { return len(s.perThread) }

// Next returns thread tid's next operation, wrapping at the end.
func (s *Source) Next(tid int) workload.Op {
	ops := s.perThread[tid]
	op := ops[s.pos[tid]]
	s.pos[tid] = (s.pos[tid] + 1) % len(ops)
	return op
}
