package assist

import (
	"repro/internal/mem"
)

// Entry is the metadata stored with each assist-buffer line.
type Entry struct {
	// Origin records how the line entered (victim/prefetch/bypass).
	Origin Origin
	// Dirty marks lines that must be written back when dropped.
	Dirty bool
	// Conflict carries the line's conflict bit (from the cache line on a
	// victim stash, or from the miss classification on a bypass).
	Conflict bool
	// Used marks that the entry has been hit at least once since
	// insertion; prefetch entries evicted with Used false are the paper's
	// "wasted prefetches".
	Used bool
}

// Evicted describes a line dropped from the buffer to make room.
type Evicted struct {
	Line  mem.LineAddr
	Entry Entry
}

// Buffer is the small fully-associative cache-assist buffer (Sec 4: eight
// entries, two read and two write ports, single-cycle access). With at
// most sixteen entries a linear scan is both simpler and faster than any
// indexed structure, and mirrors the hardware's parallel tag match.
//
// Replacement is LRU. The paper notes a victim cache is naturally FIFO
// with mid-removal (which equals LRU when hits consume entries), and that
// at eight entries a true LRU fully-associative organization "is not
// complex"; LRU is also what the no-swap policies require.
type Buffer struct {
	capacity int
	lines    []mem.LineAddr
	entries  []Entry
	stamps   []uint64
	clock    uint64

	stats BufferStats
}

// BufferStats counts buffer events.
type BufferStats struct {
	Probes           uint64
	Hits             uint64
	Fills            uint64
	Evictions        uint64
	WritebacksOnDrop uint64
	PrefetchesWasted uint64
	PrefetchesUseful uint64
}

// NewBuffer creates an empty buffer with the given capacity.
func NewBuffer(capacity int) *Buffer {
	if capacity <= 0 {
		panic("assist: buffer capacity must be positive")
	}
	return &Buffer{
		capacity: capacity,
		lines:    make([]mem.LineAddr, 0, capacity),
		entries:  make([]Entry, 0, capacity),
		stamps:   make([]uint64, 0, capacity),
	}
}

// Stats returns a snapshot of the counters.
func (b *Buffer) Stats() BufferStats { return b.stats }

func (b *Buffer) index(line mem.LineAddr) int {
	for i, l := range b.lines {
		if l == line {
			return i
		}
	}
	return -1
}

// Contains reports presence without any side effects.
func (b *Buffer) Contains(line mem.LineAddr) bool { return b.index(line) >= 0 }

// Probe looks the line up without recency or statistics side effects and
// returns a copy of its entry.
func (b *Buffer) Probe(line mem.LineAddr) (Entry, bool) {
	i := b.index(line)
	if i < 0 {
		return Entry{}, false
	}
	return b.entries[i], true
}

// Hit performs a demand lookup: on success the entry is marked used, moved
// to MRU, and a copy returned. Prefetch entries hit for the first time
// count as useful prefetches.
func (b *Buffer) Hit(line mem.LineAddr, isStore bool) (Entry, bool) {
	b.stats.Probes++
	i := b.index(line)
	if i < 0 {
		return Entry{}, false
	}
	b.stats.Hits++
	if b.entries[i].Origin == OriginPrefetch && !b.entries[i].Used {
		b.stats.PrefetchesUseful++
	}
	b.entries[i].Used = true
	if isStore {
		b.entries[i].Dirty = true
	}
	b.clock++
	b.stamps[i] = b.clock
	return b.entries[i], true
}

// Remove deletes the line (a consume, as on a swap to the cache),
// returning its entry. Removal is not an eviction: no waste accounting.
func (b *Buffer) Remove(line mem.LineAddr) (Entry, bool) {
	i := b.index(line)
	if i < 0 {
		return Entry{}, false
	}
	e := b.entries[i]
	last := len(b.lines) - 1
	b.lines[i], b.lines = b.lines[last], b.lines[:last]
	b.entries[i], b.entries = b.entries[last], b.entries[:last]
	b.stamps[i], b.stamps = b.stamps[last], b.stamps[:last]
	return e, true
}

// Insert places a line with the given entry at MRU, evicting LRU if full.
// Inserting a line already present refreshes its entry and recency. The
// eviction, if any, is returned so callers can issue writebacks; waste
// statistics for unused prefetch evictions are recorded here.
func (b *Buffer) Insert(line mem.LineAddr, e Entry) (Evicted, bool) {
	b.clock++
	if i := b.index(line); i >= 0 {
		b.entries[i] = e
		b.stamps[i] = b.clock
		return Evicted{}, false
	}
	b.stats.Fills++
	var ev Evicted
	var evicted bool
	if len(b.lines) >= b.capacity {
		lru := 0
		for i := 1; i < len(b.lines); i++ {
			if b.stamps[i] < b.stamps[lru] {
				lru = i
			}
		}
		ev = Evicted{Line: b.lines[lru], Entry: b.entries[lru]}
		evicted = true
		b.stats.Evictions++
		if ev.Entry.Dirty {
			b.stats.WritebacksOnDrop++
		}
		if ev.Entry.Origin == OriginPrefetch && !ev.Entry.Used {
			b.stats.PrefetchesWasted++
		}
		last := len(b.lines) - 1
		b.lines[lru], b.lines = b.lines[last], b.lines[:last]
		b.entries[lru], b.entries = b.entries[last], b.entries[:last]
		b.stamps[lru], b.stamps = b.stamps[last], b.stamps[:last]
	}
	b.lines = append(b.lines, line)
	b.entries = append(b.entries, e)
	b.stamps = append(b.stamps, b.clock)
	return ev, evicted
}
