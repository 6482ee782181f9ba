package cache

import (
	"fmt"

	"repro/internal/mem"
)

// LRUStack is one true-LRU recency stack that answers "would this
// reference hit a fully-associative LRU cache of capacity C?" for several
// capacities at once. By Mattson's inclusion property an LRU cache of C
// lines holds exactly the C most recently used lines, so a single stack
// cut into regions at ascending capacities C₀ < … < C_{K−1} stands in for
// K separate fully-associative caches: a line at recency position p lies
// in region k when C_{k−1} ≤ p < C_k, and it would hit every cache of
// capacity C_j for j ≥ k.
//
// The storage is an arena of nodes linked by int32 indices plus the
// pointer-free faTable index, both sized once for the largest capacity,
// so Reference performs zero heap allocations. Each node carries its
// region, and the stack keeps the last (least recent) node of every full
// region, so a reference updates one boundary node per region it passes
// over — O(K) pointer moves on top of the hash probe.
type LRUStack struct {
	caps  []int   // ascending region capacities; the last bounds the stack
	last  []int32 // per region: its least recent node, faNil until full
	full  int     // regions 0..full-1 are full
	len   int
	index faTable
	nodes []stackNode // arena; len == caps[K-1], allocated once
	head  int32       // most recently used, faNil if empty
	tail  int32       // least recently used, faNil if empty
	free  int32       // head of the free list, chained through next
}

type stackNode struct {
	line       mem.LineAddr
	prev, next int32
	region     int32
}

// faNil is the arena's (and the hash table's) null index.
const faNil int32 = -1

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

// NewLRUStack builds a stack with regions at the given capacities, in
// lines. Capacities must be positive and strictly ascending.
func NewLRUStack(capacities []int) (*LRUStack, error) {
	if len(capacities) == 0 {
		return nil, fmt.Errorf("cache: LRU stack needs at least one capacity")
	}
	for i, c := range capacities {
		if c <= 0 {
			return nil, fmt.Errorf("cache: LRU stack capacity %d must be positive", c)
		}
		if i > 0 && c <= capacities[i-1] {
			return nil, fmt.Errorf("cache: LRU stack capacities must ascend strictly, got %d after %d", c, capacities[i-1])
		}
	}
	largest := capacities[len(capacities)-1]
	s := &LRUStack{
		caps:  append([]int(nil), capacities...),
		last:  make([]int32, len(capacities)),
		index: newFATable(largest),
		nodes: make([]stackNode, largest),
		head:  faNil,
		tail:  faNil,
	}
	for i := range s.nodes {
		s.nodes[i] = stackNode{next: int32(i) + 1, prev: faNil}
	}
	s.nodes[largest-1].next = faNil
	for i := range s.last {
		s.last[i] = faNil
	}
	return s, nil
}

// Reference performs one LRU reference to line and returns the region the
// line held before it, or K — the number of capacities — if the line was
// absent (never seen, or pushed past the largest capacity). The reference hits a fully-associative
// LRU cache of capacities[k] iff the result is ≤ k. Afterwards the line is
// most recently used, and each full region whose boundary it crossed has
// passed its least recent line down to the next region.
func (s *LRUStack) Reference(line mem.LineAddr) int {
	if n := s.index.get(line); n != faNil {
		if n == s.head {
			return 0
		}
		node := &s.nodes[n]
		r := int(node.region)
		if s.last[r] == n {
			s.last[r] = node.prev
		}
		s.unlink(n)
		s.pushFront(n)
		s.demote(r)
		return r
	}
	if s.len == len(s.nodes) {
		s.evict()
	}
	n := s.free
	s.free = s.nodes[n].next
	s.nodes[n].line = line
	s.index.put(line, n)
	s.pushFront(n)
	s.demote(s.full)
	s.len++
	if s.len == s.caps[s.full] {
		s.last[s.full] = s.tail
		s.full++
	}
	return len(s.caps)
}

// demote moves the boundary of each of the first k regions (all full) one
// place toward the MRU end after a node was pushed to the front: each
// region's least recent line crosses into the next region.
func (s *LRUStack) demote(k int) {
	for j := 0; j < k; j++ {
		b := s.last[j]
		s.nodes[b].region = int32(j + 1)
		s.last[j] = s.nodes[b].prev
	}
}

// evict drops the least recent line of a full stack; the last region
// becomes not full again.
func (s *LRUStack) evict() {
	n := s.tail
	s.unlink(n)
	s.index.del(s.nodes[n].line)
	s.len--
	s.full--
	s.last[s.full] = faNil
	s.nodes[n].next = s.free
	s.free = n
}

func (s *LRUStack) pushFront(n int32) {
	node := &s.nodes[n]
	node.region = 0
	node.prev, node.next = faNil, s.head
	if s.head != faNil {
		s.nodes[s.head].prev = n
	}
	s.head = n
	if s.tail == faNil {
		s.tail = n
	}
}

func (s *LRUStack) unlink(n int32) {
	node := &s.nodes[n]
	if node.prev != faNil {
		s.nodes[node.prev].next = node.next
	} else {
		s.head = node.next
	}
	if node.next != faNil {
		s.nodes[node.next].prev = node.prev
	} else {
		s.tail = node.prev
	}
}
