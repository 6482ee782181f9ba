package assist

import (
	"testing"
	"testing/quick"

	"repro/internal/mem"
)

func TestBufferHitMiss(t *testing.T) {
	b := NewBuffer(2)
	if _, ok := b.Hit(1, false); ok {
		t.Fatal("empty buffer should miss")
	}
	b.Insert(1, Entry{Origin: OriginVictim})
	e, ok := b.Hit(1, false)
	if !ok || e.Origin != OriginVictim || !e.Used {
		t.Errorf("hit entry = %+v ok=%v", e, ok)
	}
	st := b.Stats()
	if st.Probes != 2 || st.Hits != 1 || st.Fills != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestBufferLRUEviction(t *testing.T) {
	b := NewBuffer(3)
	b.Insert(1, Entry{})
	b.Insert(2, Entry{})
	b.Insert(3, Entry{})
	b.Hit(1, false) // 2 becomes LRU
	ev, ok := b.Insert(4, Entry{})
	if !ok || ev.Line != 2 {
		t.Errorf("evicted %d, want 2", ev.Line)
	}
}

func TestBufferStoreDirties(t *testing.T) {
	b := NewBuffer(2)
	b.Insert(5, Entry{})
	b.Hit(5, true)
	e, _ := b.Probe(5)
	if !e.Dirty {
		t.Error("store hit should dirty the entry")
	}
	// Dirty drop counts a writeback.
	b.Insert(6, Entry{})
	b.Insert(7, Entry{})
	b.Insert(8, Entry{}) // drops 5 or 6; 5 is LRU? 5 was hit, so 6 drops first
	b.Insert(9, Entry{}) // now 5 drops
	if b.Stats().WritebacksOnDrop != 1 {
		t.Errorf("writebacks on drop = %d", b.Stats().WritebacksOnDrop)
	}
}

func TestWastedAndUsefulPrefetches(t *testing.T) {
	b := NewBuffer(2)
	b.Insert(1, Entry{Origin: OriginPrefetch})
	b.Insert(2, Entry{Origin: OriginPrefetch})
	b.Hit(1, false)      // 1 becomes useful
	b.Insert(3, Entry{}) // evicts 2 unused -> wasted
	b.Insert(4, Entry{}) // evicts 1 (used) -> not wasted
	st := b.Stats()
	if st.PrefetchesUseful != 1 {
		t.Errorf("useful = %d", st.PrefetchesUseful)
	}
	if st.PrefetchesWasted != 1 {
		t.Errorf("wasted = %d", st.PrefetchesWasted)
	}
	// A second hit on the same prefetch entry must not double-count.
	b2 := NewBuffer(2)
	b2.Insert(1, Entry{Origin: OriginPrefetch})
	b2.Hit(1, false)
	b2.Hit(1, false)
	if b2.Stats().PrefetchesUseful != 1 {
		t.Errorf("double-counted useful prefetch: %d", b2.Stats().PrefetchesUseful)
	}
}

func TestRemoveIsNotEviction(t *testing.T) {
	b := NewBuffer(2)
	b.Insert(1, Entry{Origin: OriginPrefetch})
	if _, ok := b.Remove(1); !ok {
		t.Fatal("remove failed")
	}
	if b.Stats().Evictions != 0 || b.Stats().PrefetchesWasted != 0 {
		t.Error("remove must not count as eviction or waste")
	}
	if _, ok := b.Remove(1); ok {
		t.Error("double remove should fail")
	}
}

func TestInsertPresentRefreshes(t *testing.T) {
	b := NewBuffer(2)
	b.Insert(1, Entry{Origin: OriginVictim})
	b.Insert(2, Entry{})
	// Refresh 1 with a new origin; no eviction.
	if _, ok := b.Insert(1, Entry{Origin: OriginBypass}); ok {
		t.Error("re-insert must not evict")
	}
	e, _ := b.Probe(1)
	if e.Origin != OriginBypass {
		t.Error("re-insert should update the entry")
	}
	// 2 is now LRU.
	ev, _ := b.Insert(3, Entry{})
	if ev.Line != 2 {
		t.Errorf("evicted %d, want 2", ev.Line)
	}
	if b.Stats().Fills != 3 { // 1, 2, 3 (refresh doesn't count)
		t.Errorf("fills = %d", b.Stats().Fills)
	}
}

func TestProbeHasNoSideEffects(t *testing.T) {
	b := NewBuffer(2)
	b.Insert(1, Entry{})
	b.Insert(2, Entry{})
	b.Probe(1) // must NOT refresh recency
	ev, _ := b.Insert(3, Entry{})
	if ev.Line != 1 {
		t.Errorf("probe changed recency: evicted %d, want 1", ev.Line)
	}
	if b.Stats().Probes != 0 {
		t.Error("Probe must not count as a demand probe")
	}
}

func TestBufferCapacityProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		b := NewBuffer(8)
		for _, op := range ops {
			line := mem.LineAddr(op & 0x3f)
			switch op >> 14 {
			case 0:
				b.Insert(line, Entry{Origin: Origin(op % 3)})
			case 1:
				b.Hit(line, op&1 == 1)
			case 2:
				b.Remove(line)
			default:
				b.Probe(line)
			}
			if len(b.lines) > 8 {
				return false
			}
		}
		return len(b.entries) == len(b.lines) && len(b.stamps) == len(b.lines)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestBufferPanicsOnBadCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewBuffer(0) did not panic")
		}
	}()
	NewBuffer(0)
}

func TestOriginNames(t *testing.T) {
	if OriginVictim.String() != "victim" || OriginPrefetch.String() != "prefetch" || OriginBypass.String() != "bypass" {
		t.Error("origin names wrong")
	}
	if Origin(9).String() != "unknown" {
		t.Error("unknown origin should render")
	}
}
