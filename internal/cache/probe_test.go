package cache

import (
	"fmt"
	"testing"

	"repro/internal/mem"
	"repro/internal/rng"
)

// TestProbeFillSlotMatchesAccessFill is the differential for the
// single-scan miss path: one cache is driven through Access and, on a
// miss, Fill; its twin through Probe and FillSlot. Over every index
// scheme at associativities 1 to 8, with Invalidate interleaved so that
// sets keep invalid ways between valid ones (as a victim-buffer swap
// leaves them), the twins must agree on every hit and eviction, on the
// full Stats, and every 1000 steps on every way's state.
func TestProbeFillSlotMatchesAccessFill(t *testing.T) {
	const sets, steps = 8, 60_000
	types := []mem.AccessType{mem.Load, mem.Store, mem.IFetch, mem.PrefetchRead}
	for _, scheme := range []IndexScheme{IndexModulo, IndexSkewed, IndexRandom} {
		for _, assoc := range []int{1, 2, 4, 8} {
			name := fmt.Sprintf("%s/%dway", scheme, assoc)
			cfg := Config{Name: "t", Size: sets * assoc * 64, LineSize: 64, Assoc: assoc, Indexing: scheme, IndexSeed: 7}
			ref, twin := MustNew(cfg), MustNew(cfg)
			src := rng.New(uint64(assoc)<<8 ^ uint64(scheme))
			// Three times the capacity in lines: hits, conflict and
			// capacity misses all occur.
			pool := uint64(3 * sets * assoc)
			for step := 0; step < steps; step++ {
				addr := mem.Addr(src.Uint64n(pool) * 64)
				if src.Intn(16) == 0 {
					l1, ok1 := ref.Invalidate(addr)
					l2, ok2 := twin.Invalidate(addr)
					if ok1 != ok2 || l1 != l2 {
						t.Fatalf("%s step %d: Invalidate(%#x) = %+v/%v, twin %+v/%v", name, step, addr, l1, ok1, l2, ok2)
					}
					continue
				}
				typ := types[src.Intn(len(types))]
				dirty, conflict := typ == mem.Store, src.Bool(0.5)
				hit := ref.Access(addr, typ)
				slot, twinHit := twin.Probe(addr, typ)
				if hit != twinHit {
					t.Fatalf("%s step %d: Access(%#x) hit %v, Probe hit %v", name, step, addr, hit, twinHit)
				}
				if !hit {
					ev, twinEv := ref.Fill(addr, dirty, conflict), twin.FillSlot(slot, addr, dirty, conflict)
					if ev != twinEv {
						t.Fatalf("%s step %d: Fill(%#x) evicted %+v, FillSlot %+v", name, step, addr, ev, twinEv)
					}
				}
				if ref.Stats() != twin.Stats() {
					t.Fatalf("%s step %d: stats %+v, twin %+v", name, step, ref.Stats(), twin.Stats())
				}
				if step%1000 == 0 {
					for i := range ref.ways {
						if ref.ways[i] != twin.ways[i] {
							t.Fatalf("%s step %d: slot %d holds %+v, twin %+v", name, step, i, ref.ways[i], twin.ways[i])
						}
					}
				}
			}
			if s := ref.Stats(); s.Hits == 0 || s.Evictions == 0 || s.Writebacks == 0 {
				t.Fatalf("%s: the stream exercised too little: %+v", name, s)
			}
		}
	}
}
