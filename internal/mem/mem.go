// Package mem defines the primitive address and access types shared by
// every layer of the simulator: physical addresses, cache-line addresses,
// and memory access records.
//
// All address arithmetic (line, set, tag extraction) lives here so that the
// cache model, the Miss Classification Table, and the assist buffers agree
// byte-for-byte on how an address decomposes.
package mem

import "fmt"

// Addr is a byte address in the simulated physical address space.
type Addr uint64

// LineAddr is an address with the intra-line offset stripped: Addr >> lineShift.
// Two accesses with the same LineAddr touch the same cache line.
type LineAddr uint64

// AccessType distinguishes the kinds of memory operations the hierarchy sees.
type AccessType uint8

const (
	// Load is a data read.
	Load AccessType = iota
	// Store is a data write.
	Store
	// IFetch is an instruction fetch. The paper applies its techniques to
	// the data cache only, but the hierarchy accepts instruction fetches so
	// the same machinery extends to the I-cache.
	IFetch
	// PrefetchRead is a hardware prefetch injected by an assist structure.
	// Prefetches are discarded (not stalled) when MSHRs are exhausted.
	PrefetchRead
)

// String returns a short human-readable name for the access type.
func (t AccessType) String() string {
	switch t {
	case Load:
		return "load"
	case Store:
		return "store"
	case IFetch:
		return "ifetch"
	case PrefetchRead:
		return "prefetch"
	default:
		return fmt.Sprintf("AccessType(%d)", uint8(t))
	}
}

// Access is one memory reference presented to the cache hierarchy.
type Access struct {
	// Addr is the byte address referenced.
	Addr Addr
	// PC is the program counter of the instruction that issued the access.
	// Exclusion schemes indexed by instruction (Tyson et al.) key off this.
	PC Addr
	// Type is the kind of access.
	Type AccessType
}

// Geometry captures how addresses decompose for a particular cache shape.
// It is immutable once constructed.
type Geometry struct {
	lineSize  int
	sets      int
	lineShift uint
	setShift  uint
	setMask   uint64
	setBits   uint // log2(sets), precomputed for the tag split
}

// NewGeometry builds the address-decomposition helper for a cache with the
// given line size (bytes) and number of sets. Both must be powers of two.
func NewGeometry(lineSize, sets int) (Geometry, error) {
	if lineSize <= 0 || lineSize&(lineSize-1) != 0 {
		return Geometry{}, fmt.Errorf("mem: line size %d is not a positive power of two", lineSize)
	}
	if sets <= 0 || sets&(sets-1) != 0 {
		return Geometry{}, fmt.Errorf("mem: set count %d is not a positive power of two", sets)
	}
	g := Geometry{
		lineSize:  lineSize,
		sets:      sets,
		lineShift: uint(log2(lineSize)),
	}
	g.setShift = g.lineShift
	g.setMask = uint64(sets - 1)
	g.setBits = uint(log2(sets))
	return g, nil
}

// MustGeometry is NewGeometry that panics on invalid parameters. Use for
// compile-time-constant shapes in tests and examples.
func MustGeometry(lineSize, sets int) Geometry {
	g, err := NewGeometry(lineSize, sets)
	if err != nil {
		panic(err)
	}
	return g
}

// LineSize returns the cache line size in bytes.
func (g Geometry) LineSize() int { return g.lineSize }

// LineShift returns log2(line size).
func (g Geometry) LineShift() uint { return g.lineShift }

// Line returns the line address of a byte address.
func (g Geometry) Line(a Addr) LineAddr { return LineAddr(uint64(a) >> g.lineShift) }

// LineBase returns the first byte address of the line containing a.
func (g Geometry) LineBase(a Addr) Addr {
	return Addr(uint64(a) &^ (uint64(g.lineSize) - 1))
}

// NextLine returns the byte address of the start of the line following the
// one containing a. Next-line prefetchers use this.
func (g Geometry) NextLine(a Addr) Addr {
	return g.LineBase(a) + Addr(g.lineSize)
}

// Set returns the set index of a byte address.
func (g Geometry) Set(a Addr) uint64 {
	return (uint64(a) >> g.setShift) & g.setMask
}

// SetOfLine returns the set index of a line address.
func (g Geometry) SetOfLine(l LineAddr) uint64 {
	return uint64(l) & g.setMask
}

// Tag returns the tag of a byte address: the bits above the set index.
func (g Geometry) Tag(a Addr) uint64 {
	return uint64(a) >> (g.setShift + g.setBits)
}

// TagOfLine returns the tag of a line address.
func (g Geometry) TagOfLine(l LineAddr) uint64 {
	return uint64(l) >> g.setBits
}

// log2 returns log base 2 of a positive power of two.
func log2(v int) int {
	n := 0
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}
