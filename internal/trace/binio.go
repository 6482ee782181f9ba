package trace

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/mem"
)

// Binary trace format ("MCTR"), two wire versions:
//
//	header:   magic "MCTR" | version u8 | endian u8 | stride u8 | reserved u8 | count u64
//	v1 record (21 bytes): pc u64 | addr u64 | op u8 | dest u8 | src1 u8 | src2 u8 | flags u8
//	v2 record (24 bytes): v1 record | pad [3]u8
//
// All integers little-endian. flags bit 0 = branch taken. count may be zero
// when the writer streamed an unknown number of records; readers then read
// to EOF. The format is deliberately trivial: the point is replayable,
// versioned traces, not compression.
//
// Version 1 is the legacy packed layout; its writers left the endian and
// stride header bytes zero, so v1 readers ignore them. Version 2 is the
// batch format: records are padded to a fixed 24-byte stride, so every
// field of record i lives at 8-aligned offset headerSize + i*24 and a
// mapped file can be indexed without any per-record decoder state. V2
// headers carry an explicit endianness marker (1 = little-endian) and the
// record stride, and readers reject anything else with a typed error
// rather than silently mis-decoding.

const (
	traceMagic = "MCTR"
	// versionLegacy is the packed 21-byte-record format.
	versionLegacy = 1
	// versionBatch is the fixed-stride 24-byte-record format.
	versionBatch = 2
	headerSize   = 16
	recordSizeV1 = 8 + 8 + 5
	recordSizeV2 = 24
	// endianLittle is the v2 header marker for little-endian records, the
	// only byte order the format defines.
	endianLittle = 1
)

// Typed header errors. Servers and tools match these with errors.Is to
// distinguish "not a trace at all" from "a trace we cannot read".
var (
	// ErrBadMagic reports that the stream does not start with "MCTR".
	ErrBadMagic = errors.New("trace: bad magic")
	// ErrUnsupportedVersion reports a version byte this reader cannot decode.
	ErrUnsupportedVersion = errors.New("trace: unsupported version")
	// ErrBadEndianness reports a v2 header whose endianness marker is not
	// little-endian.
	ErrBadEndianness = errors.New("trace: unsupported endianness")
	// ErrBadStride reports a v2 header whose declared record stride does not
	// match the version's fixed layout.
	ErrBadStride = errors.New("trace: header stride does not match version")
)

// strideOf returns the record size for a wire version, or 0 if unknown.
func strideOf(version byte) uint64 {
	switch version {
	case versionLegacy:
		return recordSizeV1
	case versionBatch:
		return recordSizeV2
	}
	return 0
}

// Writer streams instructions to an io.Writer in the binary trace format.
type Writer struct {
	w      *bufio.Writer
	count  uint64
	stride int
}

// NewWriter writes a legacy (version 1) header with count records promised
// (0 = unknown) and returns a Writer. Call Flush when done. New tooling
// should prefer NewWriterV2; this constructor remains for producing traces
// older readers understand.
func NewWriter(w io.Writer, count uint64) (*Writer, error) {
	return newWriter(w, count, versionLegacy)
}

// NewWriterV2 writes a fixed-stride (version 2) header with count records
// promised (0 = unknown) and returns a Writer. Call Flush when done.
func NewWriterV2(w io.Writer, count uint64) (*Writer, error) {
	return newWriter(w, count, versionBatch)
}

func newWriter(w io.Writer, count uint64, version byte) (*Writer, error) {
	bw := bufio.NewWriterSize(w, 1<<16)
	var hdr [headerSize]byte
	copy(hdr[:4], traceMagic)
	hdr[4] = version
	if version == versionBatch {
		hdr[5] = endianLittle
		hdr[6] = recordSizeV2
	}
	binary.LittleEndian.PutUint64(hdr[8:], count)
	if _, err := bw.Write(hdr[:]); err != nil {
		return nil, fmt.Errorf("trace: writing header: %w", err)
	}
	return &Writer{w: bw, stride: int(strideOf(version))}, nil
}

// Write appends one instruction record.
func (w *Writer) Write(in Instr) error {
	var rec [recordSizeV2]byte
	binary.LittleEndian.PutUint64(rec[0:], uint64(in.PC))
	binary.LittleEndian.PutUint64(rec[8:], uint64(in.Addr))
	rec[16] = byte(in.Op)
	rec[17] = in.Dest
	rec[18] = in.Src1
	rec[19] = in.Src2
	if in.Taken {
		rec[20] = 1
	}
	if _, err := w.w.Write(rec[:w.stride]); err != nil {
		return fmt.Errorf("trace: writing record %d: %w", w.count, err)
	}
	w.count++
	return nil
}

// Count returns the number of records written so far.
func (w *Writer) Count() uint64 { return w.count }

// Flush drains buffered records to the underlying writer.
func (w *Writer) Flush() error { return w.w.Flush() }

// WriteAll streams every instruction from s through a new Writer on w,
// returning the number written.
func WriteAll(w io.Writer, s Stream) (uint64, error) {
	tw, err := NewWriter(w, 0)
	if err != nil {
		return 0, err
	}
	var in Instr
	for s.Next(&in) {
		if err := tw.Write(in); err != nil {
			return tw.Count(), err
		}
	}
	return tw.Count(), tw.Flush()
}

// ErrTraceTooLarge reports that a trace exceeded a Reader's configured
// Limits. Servers reading untrusted uploads match it with errors.Is to
// map the failure to "request entity too large" instead of treating it
// as a corrupt trace.
var ErrTraceTooLarge = errors.New("trace: stream exceeds configured limit")

// Limits bounds what a Reader will consume. A zero field is unlimited.
// Both bounds are enforced against the header's declared count up front
// (a trace that promises too many records fails at NewReaderContext,
// before any record is read) and against the actual stream as it is
// decoded (a count-unknown trace fails at the first record past the
// limit), so a malicious or runaway upload can never make a service
// worker buffer or simulate without bound.
type Limits struct {
	// MaxRecords caps the number of records decoded.
	MaxRecords uint64
	// MaxBytes caps the total trace size in bytes (header included).
	MaxBytes uint64
}

// allowsDeclared checks a header's promised record count against the
// limits, using the stride of the trace's wire version for the byte math.
func (l Limits) allowsDeclared(declared, stride uint64) error {
	if declared == 0 {
		return nil
	}
	if l.MaxRecords != 0 && declared > l.MaxRecords {
		return fmt.Errorf("trace: header declares %d records, limit is %d: %w", declared, l.MaxRecords, ErrTraceTooLarge)
	}
	if l.MaxBytes != 0 && headerSize+declared*stride > l.MaxBytes {
		return fmt.Errorf("trace: header declares %d records (%d bytes), byte limit is %d: %w",
			declared, headerSize+declared*stride, l.MaxBytes, ErrTraceTooLarge)
	}
	return nil
}

// cancelCheckInterval is how many records a Reader decodes between
// context-cancellation checks: frequent enough that an abandoned request
// stops within microseconds of work, rare enough to stay off the
// per-record fast path.
const cancelCheckInterval = 512

// Reader replays a binary trace as a Stream. It decodes both wire
// versions, auto-detected from the header; ReadBatch additionally exposes
// the fixed-stride bulk path for either version.
type Reader struct {
	r        *bufio.Reader
	ctx      context.Context
	lim      Limits
	declared uint64
	read     uint64
	err      error
	version  byte
	stride   uint64
	raw      []byte // ReadBatch bulk-read scratch, reused across calls
}

// NewReader validates the header and returns a Reader positioned at the
// first record. The reader is unbounded and non-cancellable — the right
// shape for trusted local files; services reading untrusted request
// bodies use NewReaderContext.
func NewReader(r io.Reader) (*Reader, error) {
	return NewReaderContext(context.Background(), r, Limits{})
}

// NewReaderContext is NewReader with cancellation and resource limits:
// Next stops with ctx's error once the context is cancelled (checked
// every few hundred records, so an abandoned request stops promptly
// without per-record overhead), and stops with an error matching
// ErrTraceTooLarge as soon as the stream exceeds lim. A header that
// already promises more than lim allows fails here, before any record
// is decoded.
func NewReaderContext(ctx context.Context, r io.Reader, lim Limits) (*Reader, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	br := bufio.NewReaderSize(r, 1<<16)
	var hdr [headerSize]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	version, stride, declared, err := parseHeader(hdr)
	if err != nil {
		return nil, err
	}
	if err := lim.allowsDeclared(declared, stride); err != nil {
		return nil, err
	}
	return &Reader{r: br, ctx: ctx, lim: lim, declared: declared, version: version, stride: stride}, nil
}

// parseHeader validates a 16-byte trace header, returning the wire
// version, record stride, and declared count. Failures carry the typed
// sentinels ErrBadMagic / ErrUnsupportedVersion / ErrBadEndianness /
// ErrBadStride.
func parseHeader(hdr [headerSize]byte) (version byte, stride, declared uint64, err error) {
	if string(hdr[:4]) != traceMagic {
		return 0, 0, 0, fmt.Errorf("trace: bad magic %q (want %q): %w", hdr[:4], traceMagic, ErrBadMagic)
	}
	version = hdr[4]
	stride = strideOf(version)
	if stride == 0 {
		return 0, 0, 0, fmt.Errorf("trace: unsupported version %d: %w", version, ErrUnsupportedVersion)
	}
	if version >= versionBatch {
		// v1 headers predate the endian/stride bytes (writers left them
		// zero), so only v2+ headers are held to them.
		if hdr[5] != endianLittle {
			return 0, 0, 0, fmt.Errorf("trace: endianness marker %d (want %d): %w", hdr[5], endianLittle, ErrBadEndianness)
		}
		if uint64(hdr[6]) != stride {
			return 0, 0, 0, fmt.Errorf("trace: declared stride %d, version %d defines %d: %w", hdr[6], version, stride, ErrBadStride)
		}
	}
	declared = binary.LittleEndian.Uint64(hdr[8:])
	return version, stride, declared, nil
}

// Declared returns the record count promised by the header (0 = unknown).
func (r *Reader) Declared() uint64 { return r.declared }

// Err returns the first non-EOF error encountered while reading.
func (r *Reader) Err() error { return r.err }

// Next implements Stream. Truncated trailing records, limit violations
// (matching ErrTraceTooLarge), and context cancellation all surface
// through Err.
func (r *Reader) Next(out *Instr) bool {
	if r.err != nil {
		return false
	}
	if r.declared != 0 && r.read >= r.declared {
		return false
	}
	if r.read%cancelCheckInterval == 0 {
		if cerr := r.ctx.Err(); cerr != nil {
			r.err = fmt.Errorf("trace: cancelled at record %d: %w", r.read, cerr)
			return false
		}
	}
	// A count-unknown trace (declared == 0) is bounded only by the stream
	// itself: refuse to decode past the limits. Checked before the read so
	// an at-limit trace that cleanly ends is accepted, but one more record
	// is never buffered.
	if r.lim.MaxRecords != 0 && r.read >= r.lim.MaxRecords {
		if _, err := r.r.Peek(1); err == nil {
			r.err = fmt.Errorf("trace: more than %d records: %w", r.lim.MaxRecords, ErrTraceTooLarge)
		}
		return false
	}
	if r.lim.MaxBytes != 0 && headerSize+(r.read+1)*r.stride > r.lim.MaxBytes {
		if _, err := r.r.Peek(1); err == nil {
			r.err = fmt.Errorf("trace: more than %d bytes: %w", r.lim.MaxBytes, ErrTraceTooLarge)
		}
		return false
	}
	var rec [recordSizeV2]byte
	_, err := io.ReadFull(r.r, rec[:r.stride])
	if err != nil {
		switch {
		case !errors.Is(err, io.EOF):
			// Includes io.ErrUnexpectedEOF: a partial trailing record.
			r.err = fmt.Errorf("trace: reading record %d: %w", r.read, err)
		case r.declared != 0:
			// Clean EOF, but the header promised more records: the trace
			// was truncated on a record boundary. Silently returning the
			// prefix would corrupt replay-based measurements.
			r.err = fmt.Errorf("trace: truncated: header declared %d records, got %d", r.declared, r.read)
		}
		return false
	}
	out.PC = mem.Addr(binary.LittleEndian.Uint64(rec[0:]))
	out.Addr = mem.Addr(binary.LittleEndian.Uint64(rec[8:]))
	out.Op = OpClass(rec[16])
	out.Dest = rec[17]
	out.Src1 = rec[18]
	out.Src2 = rec[19]
	out.Taken = rec[20]&1 != 0
	r.read++
	return true
}
