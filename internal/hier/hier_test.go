package hier

import (
	"testing"

	"repro/internal/assist"
	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/prefetch"
)

func dmConfig() cache.Config {
	return cache.Config{Name: "t", Size: 16 * 1024, LineSize: 64, Assoc: 1}
}

func newBase(t *testing.T, cfg Config) *Hierarchy {
	t.Helper()
	return MustNew(cfg, assist.MustNewBaseline(dmConfig(), 0))
}

func load(a mem.Addr) mem.Access  { return mem.Access{Addr: a, Type: mem.Load} }
func store(a mem.Addr) mem.Access { return mem.Access{Addr: a, Type: mem.Store} }

func TestConfigValidation(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []func(*Config){
		func(c *Config) { c.L1Banks = 3 },
		func(c *Config) { c.L1Banks = 0 },
		func(c *Config) { c.MSHRs = 0 },
		func(c *Config) { c.L2Latency = 0 },
		func(c *Config) { c.MemLatency = 5 },
		func(c *Config) { c.L2.Size = 7 },
	}
	for i, mutate := range bad {
		c := DefaultConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestSlowBusConfig(t *testing.T) {
	if SlowBusConfig().L1L2BusOccupancy <= DefaultConfig().L1L2BusOccupancy {
		t.Error("slow bus should have higher occupancy")
	}
}

func TestLatencyTiers(t *testing.T) {
	h := newBase(t, DefaultConfig())
	// Cold miss that also misses the cold L2: memory latency.
	r := h.Access(100, load(0x1000))
	if r.Stall {
		t.Fatal("unexpected stall")
	}
	memDone := r.Done - 100
	if memDone < 100 || memDone > 130 {
		t.Errorf("memory miss latency = %d, want ~100-130", memDone)
	}
	// Warm hit: one cycle.
	r = h.Access(1000, load(0x1000))
	if r.Done-1000 != 1 {
		t.Errorf("hit latency = %d, want 1", r.Done-1000)
	}
	// Line evicted from L1 but present in L2: L2 latency.
	h.Access(2000, load(0x5000)) // 0x5000 aliases 0x1000's set (0x4000 apart)
	r = h.Access(4000, load(0x1000))
	l2Done := r.Done - 4000
	if l2Done < 20 || l2Done > 40 {
		t.Errorf("L2 hit latency = %d, want ~20-40", l2Done)
	}
	st := h.Stats()
	if st.L2Accesses == 0 || st.L2Hits == 0 || st.L2Misses == 0 {
		t.Errorf("L2 stats = %+v", st)
	}
}

func TestMSHRMergingBoundsLatency(t *testing.T) {
	h := newBase(t, DefaultConfig())
	r1 := h.Access(10, load(0x2000))
	// A second access to the same line while in flight completes when the
	// line arrives, not after a fresh round trip.
	r2 := h.Access(12, load(0x2010))
	if r2.Done > r1.Done {
		t.Errorf("merged access done at %d, first at %d", r2.Done, r1.Done)
	}
	if r2.Done < 13 {
		t.Error("merged access cannot complete before issue")
	}
}

func TestMSHRExhaustionStallsDemand(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MSHRs = 2
	h := newBase(t, cfg)
	h.Access(10, load(0x10000))
	h.Access(10, load(0x20000))
	r := h.Access(10, load(0x30000))
	if !r.Stall {
		t.Fatal("third concurrent miss should stall with 2 MSHRs")
	}
	if r.RetryAt <= 10 {
		t.Errorf("RetryAt = %d", r.RetryAt)
	}
	if h.Stats().MSHRStalls != 1 {
		t.Errorf("stall count = %d", h.Stats().MSHRStalls)
	}
	// After the lines return, misses proceed again.
	r = h.Access(r.RetryAt+1, load(0x30000))
	if r.Stall {
		t.Error("retry after drain should succeed")
	}
}

func TestPrefetchDiscardOnMSHRFull(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MSHRs = 1
	sys := prefetch.MustNew(dmConfig(), 0, 8, prefetch.Policy{})
	h := MustNew(cfg, sys)
	// The demand miss takes the only MSHR; its next-line prefetch must be
	// discarded, not stalled.
	r := h.Access(10, load(0x40000))
	if r.Stall {
		t.Fatal("demand miss should proceed")
	}
	st := h.Stats()
	if st.PrefetchesDropped != 1 || st.PrefetchesSent != 0 {
		t.Errorf("prefetch drop accounting: %+v", st)
	}
}

func TestPrefetchTimelinessPartialHiding(t *testing.T) {
	sys := prefetch.MustNew(dmConfig(), 0, 8, prefetch.Policy{})
	h := MustNew(DefaultConfig(), sys)
	r1 := h.Access(10, load(0x50000)) // miss; prefetch 0x50040 issued at 10
	// Touch the prefetched line immediately: it is in flight, so the
	// demand access completes when the prefetch lands — later than a hit,
	// earlier than a fresh miss.
	r2 := h.Access(12, load(0x50040))
	if r2.Stall {
		t.Fatal("unexpected stall")
	}
	if r2.Done <= 13 {
		t.Error("in-flight prefetch cannot supply data instantly")
	}
	if r2.Done > r1.Done+40 {
		t.Errorf("prefetched line arrived at %d vs demand %d; no hiding", r2.Done, r1.Done)
	}
	// Much later, the prefetched line is simply a buffer hit (cheap).
	r3 := h.Access(5000, load(0x50080))
	_ = r3
}

func TestBankConflictSerializes(t *testing.T) {
	h := newBase(t, DefaultConfig())
	// Warm two lines in the same bank (same set).
	h.Access(10, load(0x1000))
	h.Access(500, load(0x1000))
	// Two same-cycle hits to one bank: the second is delayed.
	r1 := h.Access(1000, load(0x1000))
	r2 := h.Access(1000, load(0x1000))
	if r2.Done <= r1.Done {
		t.Errorf("bank conflict not serialized: %d vs %d", r2.Done, r1.Done)
	}
	if h.Stats().BankConflictCycles == 0 {
		t.Error("bank conflict cycles not counted")
	}
}

func TestBusContentionAccumulates(t *testing.T) {
	cfg := DefaultConfig()
	cfg.L1L2BusOccupancy = 8
	h := newBase(t, cfg)
	// Many misses in the same cycle contend for the bus.
	var last uint64
	for i := 0; i < 6; i++ {
		r := h.Access(10, load(mem.Addr(0x100000+i*128)))
		if r.Done < last {
			t.Error("bus should serialize miss completions in issue order")
		}
		last = r.Done
	}
	if h.Stats().BusWaitCycles == 0 {
		t.Error("bus wait cycles not counted")
	}
}

func TestWritebackConsumesBus(t *testing.T) {
	h := newBase(t, DefaultConfig())
	h.Access(10, store(0x0000))
	before := h.Stats().Writebacks
	h.Access(500, load(0x4000)) // evicts dirty line
	if h.Stats().Writebacks != before+1 {
		t.Errorf("writebacks = %d", h.Stats().Writebacks)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (uint64, Stats) {
		h := newBase(t, DefaultConfig())
		var sum uint64
		for i := 0; i < 500; i++ {
			r := h.Access(uint64(i*3), load(mem.Addr((i*977)%8192*64)))
			if !r.Stall {
				sum += r.Done
			}
		}
		return sum, h.Stats()
	}
	s1, st1 := run()
	s2, st2 := run()
	if s1 != s2 || st1 != st2 {
		t.Error("hierarchy is not deterministic")
	}
}

func TestL2FunctionalContents(t *testing.T) {
	h := newBase(t, DefaultConfig())
	h.Access(10, load(0x1000))
	if !h.l2.Contains(0x1000) {
		t.Error("miss should fill the L2")
	}
}
