package trace

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/mem"
)

// Batch is a struct-of-arrays block of decoded instruction records: the
// i-th instruction is the i-th element of every slice. Hot loops iterate
// one field array at a time instead of pulling whole Instr structs through
// an interface, which is what lets the classification kernel amortize
// dispatch and bounds checks across ~256 records.
//
// All slices always share one length (Len). A Batch is reused across
// ReadBatch calls without reallocating once it has grown to the working
// batch size.
type Batch struct {
	PC    []mem.Addr
	Addr  []mem.Addr
	Op    []OpClass
	Dest  []uint8
	Src1  []uint8
	Src2  []uint8
	Taken []bool
}

// DefaultBatchSize is the record count batch consumers default to: large
// enough to amortize per-batch overhead, small enough that the SoA arrays
// for one batch stay resident in L1.
const DefaultBatchSize = 256

// NewBatch returns an empty batch with capacity for n records.
func NewBatch(n int) *Batch {
	b := &Batch{}
	b.grow(n)
	b.truncate(0)
	return b
}

// Len returns the number of records in the batch.
func (b *Batch) Len() int { return len(b.Addr) }

// truncate sets the batch length to n without touching capacity.
func (b *Batch) truncate(n int) {
	b.PC = b.PC[:n]
	b.Addr = b.Addr[:n]
	b.Op = b.Op[:n]
	b.Dest = b.Dest[:n]
	b.Src1 = b.Src1[:n]
	b.Src2 = b.Src2[:n]
	b.Taken = b.Taken[:n]
}

// grow extends the batch to length n, reallocating only when n exceeds the
// current capacity. Contents beyond the previous length are stale and must
// be overwritten by the caller.
func (b *Batch) grow(n int) {
	if n <= cap(b.Addr) {
		b.truncate(n)
		return
	}
	b.PC = make([]mem.Addr, n)
	b.Addr = make([]mem.Addr, n)
	b.Op = make([]OpClass, n)
	b.Dest = make([]uint8, n)
	b.Src1 = make([]uint8, n)
	b.Src2 = make([]uint8, n)
	b.Taken = make([]bool, n)
}

// Append adds one instruction to the batch.
func (b *Batch) Append(in Instr) {
	b.PC = append(b.PC, in.PC)
	b.Addr = append(b.Addr, in.Addr)
	b.Op = append(b.Op, in.Op)
	b.Dest = append(b.Dest, in.Dest)
	b.Src1 = append(b.Src1, in.Src1)
	b.Src2 = append(b.Src2, in.Src2)
	b.Taken = append(b.Taken, in.Taken)
}

// At reassembles record i as an Instr.
func (b *Batch) At(i int) Instr {
	return Instr{
		PC:   b.PC[i],
		Addr: b.Addr[i],
		Op:   b.Op[i],
		Dest: b.Dest[i], Src1: b.Src1[i], Src2: b.Src2[i],
		Taken: b.Taken[i],
	}
}

// decodeInto decodes one wire record (either version: the leading 21 bytes
// are layout-identical) into batch slot i. raw must hold at least
// recordSizeV1 bytes.
func (b *Batch) decodeInto(i int, raw []byte) {
	b.PC[i] = mem.Addr(binary.LittleEndian.Uint64(raw[0:]))
	b.Addr[i] = mem.Addr(binary.LittleEndian.Uint64(raw[8:]))
	b.Op[i] = OpClass(raw[16])
	b.Dest[i] = raw[17]
	b.Src1[i] = raw[18]
	b.Src2[i] = raw[19]
	b.Taken[i] = raw[20]&1 != 0
}

// BatchSource produces instruction records in SoA batches. ReadBatch fills
// b with up to max records and returns how many it produced; zero means
// the source is exhausted (check Err for why). Implementations reuse b's
// backing arrays, so a steady-state consumer allocates nothing per batch.
type BatchSource interface {
	ReadBatch(b *Batch, max int) int
	// Err returns the first error encountered, if any, once ReadBatch has
	// returned zero.
	Err() error
}

// ReadBatch bulk-decodes up to max records into b, returning how many were
// produced. It enforces the same declared-count, limit, truncation, and
// cancellation rules as Next, one check per batch instead of per record,
// and reads the underlying stream in stride-sized slabs. Zero return means
// exhaustion; r.Err() distinguishes clean EOF from truncation or limits.
func (r *Reader) ReadBatch(b *Batch, max int) int {
	if r.err != nil || max <= 0 {
		b.truncate(0)
		return 0
	}
	n := uint64(max)
	if r.declared != 0 {
		if left := r.declared - r.read; left < n {
			n = left
		}
		if n == 0 {
			b.truncate(0)
			return 0
		}
	}
	if cerr := r.ctx.Err(); cerr != nil {
		r.err = fmt.Errorf("trace: cancelled at record %d: %w", r.read, cerr)
		b.truncate(0)
		return 0
	}
	// Count-unknown traces are bounded by the stream: clamp the batch to
	// the limits, and once a limit is reached refuse to decode further if
	// more bytes are pending — mirroring Next's at-limit semantics.
	if r.lim.MaxRecords != 0 {
		if left := r.lim.MaxRecords - r.read; left < n {
			n = left
		}
	}
	if r.lim.MaxBytes != 0 {
		used := uint64(headerSize) + r.read*r.stride
		var left uint64
		if r.lim.MaxBytes > used {
			left = (r.lim.MaxBytes - used) / r.stride
		}
		if left < n {
			n = left
		}
	}
	if n == 0 {
		if _, err := r.r.Peek(1); err == nil {
			r.err = fmt.Errorf("trace: stream continues past configured limit: %w", ErrTraceTooLarge)
		}
		b.truncate(0)
		return 0
	}
	want := int(n * r.stride)
	if cap(r.raw) < want {
		r.raw = make([]byte, want)
	}
	got, err := io.ReadFull(r.r, r.raw[:want])
	complete := got / int(r.stride)
	b.grow(complete)
	for i := 0; i < complete; i++ {
		b.decodeInto(i, r.raw[i*int(r.stride):])
	}
	r.read += uint64(complete)
	// A short read that ends exactly on a record boundary is just the
	// stream ending mid-batch — only a partial trailing record, a non-EOF
	// failure, or a broken count promise is an error.
	eof := errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF)
	switch {
	case err == nil:
	case !eof:
		r.err = fmt.Errorf("trace: reading record %d: %w", r.read, err)
	case got%int(r.stride) != 0:
		r.err = fmt.Errorf("trace: reading record %d: %w", r.read, io.ErrUnexpectedEOF)
	case r.declared != 0 && r.read < r.declared:
		r.err = fmt.Errorf("trace: truncated: header declared %d records, got %d", r.declared, r.read)
	}
	return complete
}

// WriteBatch appends every record in b, encoding in one pass over the
// batch's arrays.
func (w *Writer) WriteBatch(b *Batch) error {
	var rec [recordSizeV2]byte
	for i, n := 0, b.Len(); i < n; i++ {
		binary.LittleEndian.PutUint64(rec[0:], uint64(b.PC[i]))
		binary.LittleEndian.PutUint64(rec[8:], uint64(b.Addr[i]))
		rec[16] = byte(b.Op[i])
		rec[17] = b.Dest[i]
		rec[18] = b.Src1[i]
		rec[19] = b.Src2[i]
		if b.Taken[i] {
			rec[20] = 1
		} else {
			rec[20] = 0
		}
		if _, err := w.w.Write(rec[:w.stride]); err != nil {
			return fmt.Errorf("trace: writing record %d: %w", w.count, err)
		}
		w.count++
	}
	return nil
}

// StreamBatcher adapts any Stream to a BatchSource, for consumers that
// need full records of a generated stream (trace writers, and
// RecordAccesses over a stream that is not an AccessStream). The batches
// it produces go through the Instr interface once per record, so it
// amortizes nothing by itself.
type StreamBatcher struct {
	s  Stream
	in Instr
}

// NewStreamBatcher wraps s.
func NewStreamBatcher(s Stream) *StreamBatcher { return &StreamBatcher{s: s} }

// ReadBatch implements BatchSource.
func (sb *StreamBatcher) ReadBatch(b *Batch, max int) int {
	if max <= 0 {
		b.truncate(0)
		return 0
	}
	b.grow(max)
	n := 0
	for n < max && sb.s.Next(&sb.in) {
		in := &sb.in
		b.PC[n] = in.PC
		b.Addr[n] = in.Addr
		b.Op[n] = in.Op
		b.Dest[n] = in.Dest
		b.Src1[n] = in.Src1
		b.Src2[n] = in.Src2
		b.Taken[n] = in.Taken
		n++
	}
	b.truncate(n)
	return n
}

// Err implements BatchSource; plain streams cannot fail.
func (sb *StreamBatcher) Err() error { return nil }

// Transcode reads a trace in any supported version from src and rewrites
// it in the fixed-stride v2 format to dst, preserving the declared count.
// It returns the number of records converted. Decode errors (truncation,
// limits, bad headers) abort with the reader's typed error after writing
// the records decoded so far.
func Transcode(dst io.Writer, src io.Reader, lim Limits) (uint64, error) {
	r, err := NewReaderContext(nil, src, lim)
	if err != nil {
		return 0, err
	}
	w, err := NewWriterV2(dst, r.Declared())
	if err != nil {
		return 0, err
	}
	b := NewBatch(DefaultBatchSize)
	for {
		n := r.ReadBatch(b, DefaultBatchSize)
		if n == 0 {
			break
		}
		if err := w.WriteBatch(b); err != nil {
			return w.Count(), err
		}
	}
	if err := r.Err(); err != nil {
		return w.Count(), err
	}
	return w.Count(), w.Flush()
}
