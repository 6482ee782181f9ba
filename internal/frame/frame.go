// Package frame is the one record framing the repo writes to durable
// logs: the service's job journal (internal/journal) and the memo
// cache's segment files (internal/runner). A frame is an 8-byte header
// — the payload length and the CRC32-Castagnoli of the payload, both
// u32 little-endian — followed by the payload. The checksum lets a
// reader tell a torn or damaged record from an intact one; what to do
// about it (truncate, skip, quarantine) is the reader's policy.
package frame

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
)

// HeaderSize is the length of a frame header.
const HeaderSize = 8

// MaxPayload bounds a single payload; a decoded length beyond it is
// corruption (or a torn length word), never a legitimate record.
const MaxPayload = 16 << 20

// castagnoli is the CRC polynomial (hardware-accelerated on the
// platforms this runs on).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Decoding errors.
var (
	// ErrShort: the bytes end inside the frame (a torn tail, or an
	// append still in progress).
	ErrShort = errors.New("frame: short frame")
	// ErrLength: the header declares more than MaxPayload bytes.
	ErrLength = errors.New("frame: corrupt length")
	// ErrChecksum: the payload does not match the header's checksum.
	ErrChecksum = errors.New("frame: checksum mismatch")
)

// Append appends to dst one frame whose payload is the concatenation of
// parts, and returns the extended slice.
func Append(dst []byte, parts ...[]byte) []byte {
	n, sum := 0, uint32(0)
	for _, p := range parts {
		n += len(p)
		sum = crc32.Update(sum, castagnoli, p)
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(n))
	dst = binary.LittleEndian.AppendUint32(dst, sum)
	for _, p := range parts {
		dst = append(dst, p...)
	}
	return dst
}

// Header decodes the frame header at the front of b (at least
// HeaderSize bytes): the payload length and checksum. The error is
// ErrLength when the length exceeds MaxPayload.
func Header(b []byte) (n int, sum uint32, err error) {
	l := binary.LittleEndian.Uint32(b)
	if l > MaxPayload {
		return 0, 0, ErrLength
	}
	return int(l), binary.LittleEndian.Uint32(b[4:]), nil
}

// Check reports whether payload matches the checksum sum.
func Check(payload []byte, sum uint32) bool {
	return crc32.Checksum(payload, castagnoli) == sum
}

// Decode decodes the frame at the front of data. It returns the payload
// (aliasing data) and the frame's total size. On ErrChecksum the size is
// still set, so a reader can tell a damaged frame at the very end of its
// bytes from one that more bytes follow.
func Decode(data []byte) (payload []byte, size int, err error) {
	if len(data) < HeaderSize {
		return nil, 0, ErrShort
	}
	n, sum, err := Header(data)
	if err != nil {
		return nil, 0, err
	}
	size = HeaderSize + n
	if size > len(data) {
		return nil, 0, ErrShort
	}
	payload = data[HeaderSize:size]
	if !Check(payload, sum) {
		return nil, size, ErrChecksum
	}
	return payload, size, nil
}
