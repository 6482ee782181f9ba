package trace

import (
	"encoding/binary"
	"fmt"

	"repro/internal/mem"
)

// Mapped is a zero-copy trace reader over an in-memory byte image of a
// trace file — typically an mmap'd region (see MapFile). The fixed record
// stride makes every record directly addressable, so Mapped validates the
// whole image once at open and then serves records and batches by pure
// indexing: no buffered reads, no per-record error paths, no allocation.
//
// Mapped implements both Stream (sequential Next) and BatchSource
// (ReadBatch), and additionally offers random access through At.
type Mapped struct {
	body    []byte // record region (header stripped)
	stride  int
	n       int // record count
	pos     int // Next/ReadBatch cursor
	release func() error
}

// OpenMapped validates the header and record region of a complete trace
// image and returns a Mapped reader over it. The data is not copied; the
// caller must keep it alive (and unmodified) for the reader's lifetime.
// Unlike the streaming Reader, truncation is detected here, up front:
// a partial trailing record or a body shorter than the declared count
// fails at open rather than mid-replay.
func OpenMapped(data []byte, lim Limits) (*Mapped, error) {
	if len(data) < headerSize {
		return nil, fmt.Errorf("trace: image of %d bytes is shorter than the header", len(data))
	}
	var hdr [headerSize]byte
	copy(hdr[:], data)
	_, stride, declared, err := parseHeader(hdr)
	if err != nil {
		return nil, err
	}
	if err := lim.allowsDeclared(declared, stride); err != nil {
		return nil, err
	}
	body := data[headerSize:]
	if len(body)%int(stride) != 0 {
		return nil, fmt.Errorf("trace: %d-byte body is not a whole number of %d-byte records", len(body), stride)
	}
	n := len(body) / int(stride)
	if declared != 0 {
		if uint64(n) < declared {
			return nil, fmt.Errorf("trace: truncated: header declared %d records, image holds %d", declared, n)
		}
		n = int(declared)
	}
	if lim.MaxRecords != 0 && uint64(n) > lim.MaxRecords {
		return nil, fmt.Errorf("trace: image holds %d records, limit is %d: %w", n, lim.MaxRecords, ErrTraceTooLarge)
	}
	if lim.MaxBytes != 0 && uint64(len(data)) > lim.MaxBytes {
		return nil, fmt.Errorf("trace: image is %d bytes, limit is %d: %w", len(data), lim.MaxBytes, ErrTraceTooLarge)
	}
	return &Mapped{body: body, stride: int(stride), n: n}, nil
}

// Len returns the total record count.
func (m *Mapped) Len() int { return m.n }

// At decodes record i. It does not move the sequential cursor.
func (m *Mapped) At(i int) Instr {
	raw := m.body[i*m.stride:]
	return Instr{
		PC:   mem.Addr(binary.LittleEndian.Uint64(raw[0:])),
		Addr: mem.Addr(binary.LittleEndian.Uint64(raw[8:])),
		Op:   OpClass(raw[16]),
		Dest: raw[17], Src1: raw[18], Src2: raw[19],
		Taken: raw[20]&1 != 0,
	}
}

// Next implements Stream.
func (m *Mapped) Next(out *Instr) bool {
	if m.pos >= m.n {
		return false
	}
	*out = m.At(m.pos)
	m.pos++
	return true
}

// Rewind resets the sequential cursor to the first record, so one mapped
// image can be replayed repeatedly without revalidating or remapping.
func (m *Mapped) Rewind() { m.pos = 0 }

// ReadBatch implements BatchSource, decoding straight out of the mapped
// image.
func (m *Mapped) ReadBatch(b *Batch, max int) int {
	n := m.n - m.pos
	if n > max {
		n = max
	}
	if n <= 0 {
		b.truncate(0)
		return 0
	}
	b.grow(n)
	base := m.pos * m.stride
	for i := 0; i < n; i++ {
		b.decodeInto(i, m.body[base+i*m.stride:])
	}
	m.pos += n
	return n
}

// Err implements BatchSource. A Mapped image is fully validated at open,
// so replay cannot fail.
func (m *Mapped) Err() error { return nil }

// Close releases the underlying mapping, if the Mapped owns one (MapFile).
// Closing a Mapped over caller-owned bytes is a no-op.
func (m *Mapped) Close() error {
	m.body, m.n, m.pos = nil, 0, 0
	if m.release == nil {
		return nil
	}
	rel := m.release
	m.release = nil
	return rel()
}
