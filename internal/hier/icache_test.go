package hier

import (
	"testing"

	"repro/internal/assist"
	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/victim"
)

func iConfig() cache.Config {
	return cache.Config{Name: "L1I", Size: 8 * 1024, LineSize: 64, Assoc: 1}
}

func TestIFetchPerfectWithoutAttachment(t *testing.T) {
	h := newBase(t, DefaultConfig())
	r := h.IFetch(100, 0x400000)
	if r.Stall || r.Done != 101 {
		t.Errorf("unattached IFetch = %+v; want 1-cycle hit", r)
	}
	if h.IFetchStats().Fetches != 0 {
		t.Error("perfect I-cache should not count fetches")
	}
}

func TestIFetchMissAndHit(t *testing.T) {
	h := newBase(t, DefaultConfig())
	h.AttachI(assist.MustNewBaseline(iConfig(), 0))
	r := h.IFetch(100, 0x400000)
	if r.Stall {
		t.Fatal("unexpected stall")
	}
	if r.Done-100 < 100 {
		t.Errorf("cold I-miss latency = %d; should reach memory", r.Done-100)
	}
	r = h.IFetch(1000, 0x400000)
	if r.Done != 1001 {
		t.Errorf("warm I-fetch latency = %d, want 1", r.Done-1000)
	}
	st := h.IFetchStats()
	if st.Fetches != 2 || st.Misses != 1 {
		t.Errorf("I stats = %+v", st)
	}
}

func TestIFetchSharesL2(t *testing.T) {
	h := newBase(t, DefaultConfig())
	h.AttachI(assist.MustNewBaseline(iConfig(), 0))
	h.IFetch(10, 0x400000)
	if !h.l2.Contains(0x400000) {
		t.Error("instruction miss should fill the unified L2")
	}
	// A line brought in by the data side is an L2 hit for the I side
	// after L1I eviction pressure — here just verify the L2 timing tier.
	r := h.IFetch(5000, 0x400000+0x2000) // same L1I set (8KB period), new tag
	done1 := r.Done - 5000
	r = h.IFetch(10000, 0x400000) // evicted from L1I, resident in L2
	if got := r.Done - 10000; got >= done1 {
		t.Errorf("L2-resident I-line (%d cycles) should be faster than memory (%d)", got, done1)
	}
}

func TestIFetchMSHRLimit(t *testing.T) {
	h := newBase(t, DefaultConfig())
	h.AttachI(assist.MustNewBaseline(iConfig(), 0))
	stall := false
	for i := 0; i < iMSHRs+2; i++ {
		r := h.IFetch(10, mem.Addr(0x400000+i*0x10000))
		stall = stall || r.Stall
	}
	if !stall {
		t.Error("instruction MSHRs should exhaust")
	}
	if h.IFetchStats().MSHRStalls == 0 {
		t.Error("stall not counted")
	}
}

func TestIFetchMergesInFlight(t *testing.T) {
	h := newBase(t, DefaultConfig())
	h.AttachI(assist.MustNewBaseline(iConfig(), 0))
	r1 := h.IFetch(10, 0x400000)
	r2 := h.IFetch(12, 0x400020) // same line
	if r2.Stall || r2.Done > r1.Done {
		t.Errorf("merged I-fetch should ride the in-flight line: %d vs %d", r2.Done, r1.Done)
	}
}

func TestIVictimBufferServesConflicts(t *testing.T) {
	h := newBase(t, DefaultConfig())
	h.AttachI(victim.MustNew(iConfig(), 0, 8, victim.FilterSwapsPolicy))
	a, b := mem.Addr(0x400000), mem.Addr(0x402000) // alias in 8KB DM
	h.IFetch(10, a)
	h.IFetch(1000, b) // evicts a into the I-victim buffer
	r := h.IFetch(2000, a)
	if got := r.Done - 2000; got > 5 {
		t.Errorf("I-victim hit latency = %d; should be a couple of cycles", got)
	}
}
