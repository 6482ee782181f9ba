package runner

import (
	"cmp"
	"slices"
)

// index maps the first 8 bytes of a memo key to the packed location of its
// newest frame (pack). It holds no heap object per entry: a sorted slice
// of 16-byte (key, location) slots, plus a map of recent puts that is
// merged into the slice once it outgrows an eighth of it. That bounds the
// whole index near 20 bytes per entry (TestIndexBytesPerEntry pins at
// most 24), where a map keyed by the hex key string costs over 100.
type index struct {
	sorted []slot
	recent map[uint64]uint64
}

type slot struct{ key, loc uint64 }

// gone is a recent-map value that hides a dropped entry's sorted slot.
const gone = ^uint64(0)

// minRecent is the recent map's size below which it never merges.
const minRecent = 512

func (x *index) get(k uint64) (uint64, bool) {
	if v, ok := x.recent[k]; ok {
		if v == gone {
			return 0, false
		}
		return v, true
	}
	i, ok := slices.BinarySearchFunc(x.sorted, k, func(s slot, k uint64) int { return cmp.Compare(s.key, k) })
	if !ok {
		return 0, false
	}
	return x.sorted[i].loc, true
}

func (x *index) put(k, v uint64) {
	if x.recent == nil {
		x.recent = map[uint64]uint64{}
	}
	x.recent[k] = v
	if len(x.recent) > max(minRecent, len(x.sorted)/8) {
		x.merge()
	}
}

// del drops k if it still maps to v.
func (x *index) del(k, v uint64) {
	if cur, ok := x.get(k); ok && cur == v {
		x.put(k, gone)
	}
}

// merge folds the recent puts into the sorted slice, newest winning.
func (x *index) merge() {
	add := make([]slot, 0, len(x.recent))
	for k, v := range x.recent {
		add = append(add, slot{k, v})
	}
	slices.SortFunc(add, func(a, b slot) int { return cmp.Compare(a.key, b.key) })
	out := make([]slot, 0, len(x.sorted)+len(add))
	i := 0
	for _, a := range add {
		for i < len(x.sorted) && x.sorted[i].key < a.key {
			out = append(out, x.sorted[i])
			i++
		}
		if i < len(x.sorted) && x.sorted[i].key == a.key {
			i++
		}
		if a.loc != gone {
			out = append(out, a)
		}
	}
	x.sorted = append(out, x.sorted[i:]...)
	clear(x.recent)
}
