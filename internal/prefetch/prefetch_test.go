package prefetch

import (
	"testing"

	"repro/internal/assist"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/mem"
)

func dmConfig() cache.Config {
	return cache.Config{Name: "t", Size: 16 * 1024, LineSize: 64, Assoc: 1}
}

func load(a mem.Addr) mem.Access { return mem.Access{Addr: a, PC: 0x400, Type: mem.Load} }

// drive pushes an access through the system, completing any requested
// prefetches immediately (zero-latency arrival).
func drive(s assist.System, acc mem.Access) assist.Outcome {
	out := s.Access(acc)
	for _, pf := range out.Prefetches {
		s.PrefetchArrived(pf)
	}
	return out
}

func TestPolicyNames(t *testing.T) {
	if (Policy{}).Name() != "pf-all" {
		t.Error("unfiltered policy name wrong")
	}
	if (Policy{Filter: core.OrConflict}).Name() != "pf-skip-or-conflict" {
		t.Errorf("filtered name = %q", Policy{Filter: core.OrConflict}.Name())
	}
}

func TestNextLinePrefetchOnMiss(t *testing.T) {
	s := MustNew(dmConfig(), 0, 8, Policy{})
	out := s.Access(load(0x1000))
	if len(out.Prefetches) != 1 || out.Prefetches[0] != mem.LineAddr(0x1040>>6) {
		t.Fatalf("prefetches = %v", out.Prefetches)
	}
	s.PrefetchArrived(out.Prefetches[0])
	// The prefetched next line now hits in the buffer, moves to the
	// cache, and (with PrefetchOnBufferHit) keeps the stream going.
	s2 := MustNew(dmConfig(), 0, 8, Policy{PrefetchOnBufferHit: true})
	drive(s2, load(0x1000))
	out = s2.Access(load(0x1040))
	if !out.BufferHit || !out.CacheFill {
		t.Fatalf("buffer hit outcome = %+v", out)
	}
	if len(out.Prefetches) != 1 {
		t.Errorf("stream should continue with a new prefetch, got %v", out.Prefetches)
	}
	if inL1, _ := s2.Contains(0x1040); !inL1 {
		t.Error("prefetched line should have moved into the cache on hit")
	}
}

func TestNoPrefetchWhenNextLinePresent(t *testing.T) {
	s := MustNew(dmConfig(), 0, 8, Policy{})
	drive(s, load(0x1040)) // fills 0x1040's line, prefetches 0x1080
	out := s.Access(load(0x1000))
	// Next line (0x1040) already in cache -> no prefetch.
	if len(out.Prefetches) != 0 {
		t.Errorf("prefetched an already-present line: %v", out.Prefetches)
	}
}

func TestSequentialStreamCoverage(t *testing.T) {
	s := MustNew(dmConfig(), 0, 8, Policy{PrefetchOnBufferHit: true})
	misses := 0
	for i := 0; i < 200; i++ {
		out := drive(s, load(mem.Addr(0x40000+i*64)))
		if out.Miss() {
			misses++
		}
	}
	// With zero-latency arrivals, only the very first access should miss.
	if misses > 2 {
		t.Errorf("sequential stream suffered %d misses with a next-line prefetcher", misses)
	}
	if acc := s.Stats().PrefetchAccuracy(); acc < 0.9 && s.Stats().PrefetchesWasted > 2 {
		t.Errorf("sequential prefetch accuracy = %.2f", acc)
	}
}

func TestFilterSkipsConflictMissPrefetch(t *testing.T) {
	s := MustNew(dmConfig(), 0, 8, Policy{Filter: core.OutConflict})
	a, b := mem.Addr(0x0000), mem.Addr(0x4000)
	s.Access(load(a))        // capacity: prefetch issued
	s.Access(load(b))        // capacity: prefetch issued
	out := s.Access(load(a)) // conflict-classified: prefetch suppressed
	if out.Class != core.Conflict {
		t.Fatalf("class = %v", out.Class)
	}
	if len(out.Prefetches) != 0 {
		t.Error("out-conflict filter should suppress the prefetch")
	}
	// Unfiltered system prefetches on the same access pattern.
	u := MustNew(dmConfig(), 0, 8, Policy{})
	u.Access(load(a))
	u.Access(load(b))
	out = u.Access(load(a))
	if len(out.Prefetches) != 1 {
		t.Error("unfiltered prefetcher should prefetch on the conflict miss")
	}
}

func TestPrefetchArrivedDropsWhenPresent(t *testing.T) {
	s := MustNew(dmConfig(), 0, 8, Policy{})
	drive(s, load(0x2000))
	line := s.L1().Geometry().Line(0x2000)
	if s.PrefetchArrived(line) {
		t.Error("arrival for a cache-resident line should drop")
	}
	// A line already in the buffer also drops.
	nl := s.L1().Geometry().Line(0x2040)
	if s.PrefetchArrived(nl) {
		t.Error("arrival for a buffer-resident line should drop")
	}
}

func TestWastedPrefetchAccounting(t *testing.T) {
	s := MustNew(dmConfig(), 0, 2, Policy{})
	// Random-ish misses whose next lines are never used: the 2-entry
	// buffer churns and counts waste.
	for i := 0; i < 20; i++ {
		drive(s, load(mem.Addr(0x100000+i*8192)))
	}
	st := s.Stats()
	if st.PrefetchesWasted == 0 {
		t.Error("non-sequential stream should waste prefetches")
	}
	if st.PrefetchesUseful != 0 {
		t.Errorf("no prefetch should be useful here, got %d", st.PrefetchesUseful)
	}
	if st.PrefetchAccuracy() != 0 {
		t.Errorf("accuracy = %g", st.PrefetchAccuracy())
	}
}

func TestRPTDetectsStride(t *testing.T) {
	s := MustNewRPT(dmConfig(), 0, 8, 512)
	pc := mem.Addr(0x400)
	// A steady stride of 128 bytes: after the state machine settles the
	// RPT should prefetch addr+128.
	var issued int
	for i := 0; i < 10; i++ {
		out := s.Access(mem.Access{Addr: mem.Addr(0x8000 + i*128), PC: pc, Type: mem.Load})
		issued += len(out.Prefetches)
		for _, pf := range out.Prefetches {
			s.PrefetchArrived(pf)
		}
	}
	if issued == 0 {
		t.Fatal("RPT never issued a prefetch on a steady stride")
	}
	// The last prefetch target should be two strides ahead of the
	// second-to-last access.
}

func TestRPTIgnoresStrideZero(t *testing.T) {
	s := MustNewRPT(dmConfig(), 0, 8, 512)
	pc := mem.Addr(0x500)
	for i := 0; i < 10; i++ {
		out := s.Access(mem.Access{Addr: 0x9000, PC: pc, Type: mem.Load})
		if len(out.Prefetches) != 0 {
			t.Fatal("stride-0 access pattern must not prefetch")
		}
	}
}

func TestRPTRandomPatternMostlyQuiet(t *testing.T) {
	s := MustNewRPT(dmConfig(), 0, 8, 512)
	pc := mem.Addr(0x600)
	issued := 0
	addrs := []mem.Addr{0x1000, 0x9040, 0x2480, 0x77c0, 0x31c0, 0x5000, 0x1240}
	for i := 0; i < 50; i++ {
		out := s.Access(mem.Access{Addr: addrs[i%len(addrs)] + mem.Addr(i*8192), PC: pc, Type: mem.Load})
		issued += len(out.Prefetches)
	}
	if issued > 10 {
		t.Errorf("RPT issued %d prefetches on an unstrided pattern", issued)
	}
}

func TestRPTName(t *testing.T) {
	if MustNewRPT(dmConfig(), 0, 8, 512).Name() != "pf-rpt" {
		t.Error("RPT name wrong")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(dmConfig(), 0, 0, Policy{}); err == nil {
		t.Error("zero entries accepted")
	}
	if _, err := New(cache.Config{Size: 1}, 0, 8, Policy{}); err == nil {
		t.Error("bad cache config accepted")
	}
}

func TestNewRPTTableSize(t *testing.T) {
	for _, tc := range []struct {
		size int
		ok   bool
	}{{0, false}, {-1, false}, {300, false}, {64, true}, {512, true}} {
		s, err := NewRPT(dmConfig(), 0, 8, tc.size)
		if ok := err == nil && s != nil; ok != tc.ok {
			t.Errorf("NewRPT table size %d: accepted=%v err=%v, want accepted=%v", tc.size, ok, err, tc.ok)
		}
	}
}
