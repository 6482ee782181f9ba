package cache

import "repro/internal/mem"

// FullyAssociative is a fully-associative cache over line addresses with
// true LRU replacement, implemented as an open-addressing hash index plus
// an intrusive doubly-linked recency list. It is the storage for the small
// fully-associative assist buffers (victim/prefetch/bypass), which the
// paper sizes at 8–16 entries, and the independent reference the classic
// (Hill) classifier's LRUStack is tested against: a reference that misses
// a set-associative cache but hits a fully-associative LRU cache of equal
// capacity is a conflict miss.
//
// Everything lives in two contiguous slabs allocated at construction:
// an arena of nodes linked by int32 indices (no per-entry heap nodes),
// and a pointer-free linear-probing hash table mapping line -> arena
// index (no map inserts on the hot path). Capacity is fixed, so the
// table is sized once, never grows, and every operation — Reference,
// Insert, Remove — performs zero heap allocations. LRUStack shares the
// table and the arena layout.
type FullyAssociative struct {
	capacity int
	len      int
	index    faTable
	nodes    []faNode // arena; len == capacity, allocated once
	head     int32    // most recently used, faNil if empty
	tail     int32    // least recently used, faNil if empty
	free     int32    // head of the free list, chained through next

	hits, misses uint64
}

// faNil is the arena's (and the hash table's) null index.
const faNil int32 = -1

type faNode struct {
	line       mem.LineAddr
	prev, next int32
}

// faTable is a fixed-size linear-probing hash table from line address to
// arena index. Slots are pointer-free, deletion uses backward shifting
// (no tombstones), and the table is sized to at most 25% load so probe
// sequences stay short.
type faTable struct {
	mask  uint64
	slots []faSlot
}

type faSlot struct {
	line mem.LineAddr
	idx  int32 // faNil = empty
}

// newFATable sizes the table to the smallest power of two holding capacity
// entries at <= 25% load (minimum 8 slots).
func newFATable(capacity int) faTable {
	size := 8
	for size < 4*capacity {
		size <<= 1
	}
	t := faTable{mask: uint64(size - 1), slots: make([]faSlot, size)}
	for i := range t.slots {
		t.slots[i].idx = faNil
	}
	return t
}

// home returns the line's preferred slot (Fibonacci hashing: multiply by
// the 64-bit golden ratio and keep the top bits, which mixes the sparse
// high bits of line addresses into the table's low index bits).
func (t *faTable) home(line mem.LineAddr) uint64 {
	h := uint64(line) * 0x9E3779B97F4A7C15
	return (h >> 32) & t.mask
}

// get returns the arena index stored for line, or faNil.
func (t *faTable) get(line mem.LineAddr) int32 {
	for i := t.home(line); ; i = (i + 1) & t.mask {
		s := &t.slots[i]
		if s.idx == faNil {
			return faNil
		}
		if s.line == line {
			return s.idx
		}
	}
}

// put inserts line -> idx. line must not be present.
func (t *faTable) put(line mem.LineAddr, idx int32) {
	for i := t.home(line); ; i = (i + 1) & t.mask {
		if t.slots[i].idx == faNil {
			t.slots[i] = faSlot{line: line, idx: idx}
			return
		}
	}
}

// del removes line, which must be present, compacting the probe cluster by
// backward shifting so lookups never need tombstones.
func (t *faTable) del(line mem.LineAddr) {
	i := t.home(line)
	for t.slots[i].line != line || t.slots[i].idx == faNil {
		i = (i + 1) & t.mask
	}
	// Shift later cluster members back if they can no longer be reached
	// from their home slot once slot i empties.
	j := i
	for {
		t.slots[i].idx = faNil
		for {
			j = (j + 1) & t.mask
			s := t.slots[j]
			if s.idx == faNil {
				return
			}
			// s belongs at home(s.line); it may stay at j only if its home
			// lies cyclically after the hole at i.
			if (j-t.home(s.line))&t.mask >= (j-i)&t.mask {
				t.slots[i] = s
				i = j
				break
			}
		}
	}
}

// reset empties the table in place.
func (t *faTable) reset() {
	for i := range t.slots {
		t.slots[i].idx = faNil
	}
}

// NewFullyAssociative creates a fully-associative LRU cache holding up to
// capacity lines. Capacity must be positive.
func NewFullyAssociative(capacity int) *FullyAssociative {
	if capacity <= 0 {
		panic("cache: fully-associative capacity must be positive")
	}
	f := &FullyAssociative{
		capacity: capacity,
		index:    newFATable(capacity),
		nodes:    make([]faNode, capacity),
		head:     faNil,
		tail:     faNil,
	}
	f.rebuildFreeList()
	return f
}

// rebuildFreeList chains every arena slot onto the free list.
func (f *FullyAssociative) rebuildFreeList() {
	for i := range f.nodes {
		f.nodes[i] = faNode{next: int32(i) + 1, prev: faNil}
	}
	f.nodes[len(f.nodes)-1].next = faNil
	f.free = 0
}

// Capacity returns the maximum number of lines held.
func (f *FullyAssociative) Capacity() int { return f.capacity }

// Len returns the number of lines currently held.
func (f *FullyAssociative) Len() int { return f.len }

// Hits and Misses return the access counters maintained by Reference.
func (f *FullyAssociative) Hits() uint64   { return f.hits }
func (f *FullyAssociative) Misses() uint64 { return f.misses }

// Reference performs an LRU reference to line: on hit the line moves to
// MRU and Reference returns true; on miss the line is inserted (evicting
// LRU if full) and Reference returns false. This single operation is the
// oracle classifier's whole per-access workload.
func (f *FullyAssociative) Reference(line mem.LineAddr) bool {
	if n := f.index.get(line); n != faNil {
		f.hits++
		f.moveToFront(n)
		return true
	}
	f.misses++
	// The line is known absent; skip Insert's presence probe.
	f.evictIfFull()
	f.insertFront(line)
	return false
}

// Contains reports presence without updating recency.
func (f *FullyAssociative) Contains(line mem.LineAddr) bool {
	return f.index.get(line) != faNil
}

// Touch moves line to MRU if present, reporting whether it was.
func (f *FullyAssociative) Touch(line mem.LineAddr) bool {
	n := f.index.get(line)
	if n == faNil {
		return false
	}
	f.moveToFront(n)
	return true
}

// Insert adds line at MRU, evicting the LRU line if full. It returns the
// evicted line and whether an eviction happened. Inserting a present line
// just refreshes it.
//
// Contract: callers MUST check ok before using evicted. A no-eviction
// insert returns (0, false), and 0 is itself a valid line address — the
// line of byte address 0 — so the zero value alone cannot distinguish "no
// eviction" from "evicted line 0". See TestFAInsertLineZero.
func (f *FullyAssociative) Insert(line mem.LineAddr) (evicted mem.LineAddr, ok bool) {
	if n := f.index.get(line); n != faNil {
		f.moveToFront(n)
		return 0, false
	}
	evicted, ok = f.evictIfFull()
	f.insertFront(line)
	return evicted, ok
}

// evictIfFull evicts the LRU line when the cache is at capacity, returning
// it and whether an eviction happened.
func (f *FullyAssociative) evictIfFull() (evicted mem.LineAddr, ok bool) {
	if f.len < f.capacity {
		return 0, false
	}
	lru := f.tail
	f.removeNode(lru)
	line := f.nodes[lru].line
	f.index.del(line)
	f.len--
	f.nodes[lru].next = f.free
	f.free = lru
	return line, true
}

// Remove deletes line, reporting whether it was present.
func (f *FullyAssociative) Remove(line mem.LineAddr) bool {
	n := f.index.get(line)
	if n == faNil {
		return false
	}
	f.removeNode(n)
	f.index.del(line)
	f.len--
	f.nodes[n].next = f.free
	f.free = n
	return true
}

// LRU returns the least-recently-used line, if any.
func (f *FullyAssociative) LRU() (mem.LineAddr, bool) {
	if f.tail == faNil {
		return 0, false
	}
	return f.nodes[f.tail].line, true
}

// Lines returns the resident lines from MRU to LRU order.
func (f *FullyAssociative) Lines() []mem.LineAddr {
	out := make([]mem.LineAddr, 0, f.len)
	for n := f.head; n != faNil; n = f.nodes[n].next {
		out = append(out, f.nodes[n].line)
	}
	return out
}

// Reset empties the cache and clears counters. The arena and hash table
// are retained, so a reused cache re-fills without allocating.
func (f *FullyAssociative) Reset() {
	f.index.reset()
	f.len = 0
	f.head, f.tail = faNil, faNil
	f.rebuildFreeList()
	f.hits, f.misses = 0, 0
}

func (f *FullyAssociative) insertFront(line mem.LineAddr) {
	if f.free == faNil {
		// Caller must have evicted first; enforce the invariant loudly.
		panic("cache: fully-associative insert past capacity")
	}
	n := f.free
	f.free = f.nodes[n].next
	f.nodes[n] = faNode{line: line, prev: faNil, next: f.head}
	f.index.put(line, n)
	f.len++
	if f.head != faNil {
		f.nodes[f.head].prev = n
	}
	f.head = n
	if f.tail == faNil {
		f.tail = n
	}
}

func (f *FullyAssociative) moveToFront(n int32) {
	if f.head == n {
		return
	}
	f.removeNode(n)
	f.nodes[n].prev, f.nodes[n].next = faNil, f.head
	if f.head != faNil {
		f.nodes[f.head].prev = n
	}
	f.head = n
	if f.tail == faNil {
		f.tail = n
	}
}

func (f *FullyAssociative) removeNode(n int32) {
	node := &f.nodes[n]
	if node.prev != faNil {
		f.nodes[node.prev].next = node.next
	} else {
		f.head = node.next
	}
	if node.next != faNil {
		f.nodes[node.next].prev = node.prev
	} else {
		f.tail = node.prev
	}
	node.prev, node.next = faNil, faNil
}
