package cpu

import (
	"testing"

	"repro/internal/assist"
	"repro/internal/cache"
	"repro/internal/hier"
	"repro/internal/mem"
	"repro/internal/trace"
)

func newSMT(t *testing.T, nthreads int) *CPU {
	t.Helper()
	h := hier.MustNew(hier.DefaultConfig(), assist.MustNewBaseline(dmConfig(), 0))
	return MustNewSMT(DefaultConfig(), h, nthreads)
}

func intStream(n int, pcBase mem.Addr) trace.Stream {
	ins := make([]trace.Instr, n)
	for i := range ins {
		ins[i] = trace.Instr{PC: pcBase + mem.Addr(i%16*4), Op: trace.IntOp, Dest: uint8(1 + i%60)}
	}
	return trace.NewSliceStream(ins)
}

func loadStream(n int, base mem.Addr, serial bool) trace.Stream {
	ins := make([]trace.Instr, n)
	for i := range ins {
		dest := uint8(1 + i%60)
		src := uint8(0)
		if serial {
			dest, src = 7, 7
		}
		ins[i] = trace.Instr{PC: 0x80, Op: trace.Load, Dest: dest, Src1: src,
			Addr: base + mem.Addr(i*577*64)}
	}
	return trace.NewSliceStream(ins)
}

func TestSMTValidation(t *testing.T) {
	h := hier.MustNew(hier.DefaultConfig(), assist.MustNewBaseline(dmConfig(), 0))
	if _, err := NewSMT(DefaultConfig(), h, 0); err == nil {
		t.Error("0 threads accepted")
	}
	if _, err := NewSMT(DefaultConfig(), h, 9); err == nil {
		t.Error("9 threads accepted")
	}
	cfg := DefaultConfig()
	cfg.ROBSize = 8
	if _, err := NewSMT(cfg, h, 4); err == nil {
		t.Error("ROB too small for thread count accepted")
	}
}

func TestSMTSingleThreadRuns(t *testing.T) {
	s := newSMT(t, 1)
	ms := s.RunThreads([]trace.Stream{intStream(5000, 0x1000)}, 0)
	if len(ms) != 1 {
		t.Fatalf("metrics count = %d", len(ms))
	}
	if ms[0].Instructions != 5000 {
		t.Errorf("retired %d", ms[0].Instructions)
	}
	if ms[0].IPC() <= 0 {
		t.Error("no progress")
	}
}

func TestSMTBothThreadsProgress(t *testing.T) {
	s := newSMT(t, 2)
	ms := s.RunThreads([]trace.Stream{
		intStream(4000, 0x1000),
		intStream(4000, 0x2000),
	}, 0)
	for i, m := range ms {
		if m.Instructions != 4000 {
			t.Errorf("thread %d retired %d", i, m.Instructions)
		}
	}
	// Shared cycle count.
	if ms[0].Cycles != ms[1].Cycles {
		t.Error("threads must share the cycle count")
	}
}

func TestSMTThroughputExceedsSingleThread(t *testing.T) {
	// Two memory-stalled threads overlap each other's stalls: combined
	// throughput must beat one thread alone on the same core.
	single := newSMT(t, 1)
	m1 := single.RunThreads([]trace.Stream{loadStream(2000, 0x100000, true)}, 0)

	dual := newSMT(t, 2)
	m2 := dual.RunThreads([]trace.Stream{
		loadStream(2000, 0x100000, true),
		loadStream(2000, 0x40000000, true),
	}, 0)
	soloIPC := m1[0].IPC()
	combIPC := (float64(m2[0].Instructions) + float64(m2[1].Instructions)) / float64(m2[0].Cycles)
	if combIPC <= soloIPC*1.3 {
		t.Errorf("SMT should hide serial-load stalls: solo %.3f vs combined %.3f", soloIPC, combIPC)
	}
}

func TestSMTCacheInterferenceVisible(t *testing.T) {
	// Two threads hammering aliasing addresses in the shared L1 must
	// slow each other down versus running with disjoint sets.
	mk := func(base2 mem.Addr) float64 {
		s := newSMT(t, 2)
		// Each thread hammers one hot line. Alone (or with a disjoint
		// partner) it hits every time; a partner aliasing the same set of
		// the shared direct-mapped L1 turns both threads into a
		// cross-thread ping-pong.
		mkStream := func(a mem.Addr) trace.Stream {
			ins := make([]trace.Instr, 3000)
			for i := range ins {
				ins[i] = trace.Instr{PC: 0x80, Op: trace.Load, Dest: 7, Src1: 7, Addr: a}
			}
			return trace.NewSliceStream(ins)
		}
		ms := s.RunThreads([]trace.Stream{
			mkStream(0x0000),
			mkStream(base2),
		}, 0)
		return (float64(ms[0].Instructions) + float64(ms[1].Instructions)) / float64(ms[0].Cycles)
	}
	disjoint := mk(0x1000) // different set: both threads always hit
	conflict := mk(0x8000) // same set, different tag: mutual eviction
	if conflict >= disjoint {
		t.Errorf("set sharing should hurt: disjoint %.3f vs conflicting %.3f", disjoint, conflict)
	}
}

func TestSMTRetireTarget(t *testing.T) {
	s := newSMT(t, 2)
	ms := s.RunThreads([]trace.Stream{
		intStream(100000, 0x1000),
		intStream(100000, 0x2000),
	}, 2000)
	for i, m := range ms {
		if m.Instructions < 2000 || m.Instructions > 2100 {
			t.Errorf("thread %d retired %d, want ~2000", i, m.Instructions)
		}
	}
}

func TestSMTDeterministic(t *testing.T) {
	run := func() []Metrics {
		s := newSMT(t, 2)
		return s.RunThreads([]trace.Stream{
			loadStream(1500, 0x100000, false),
			intStream(1500, 0x2000),
		}, 0)
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("SMT runs are not deterministic")
		}
	}
}

// TestSMTRunAllocationsIndependentOfLength is the SMT counterpart of
// TestRunAllocationsIndependentOfLength: a two-thread co-run allocates the
// same at 10k and 100k instructions per thread.
func TestSMTRunAllocationsIndependentOfLength(t *testing.T) {
	a, b := mixedInstrs(100_000, 0x1000), mixedInstrs(100_000, 0x90000)
	run := func(n int) {
		h := hier.MustNew(hier.DefaultConfig(), assist.MustNewBaseline(dmConfig(), 0))
		MustNewSMT(DefaultConfig(), h, 2).RunThreads([]trace.Stream{
			trace.NewSliceStream(a[:n]), trace.NewSliceStream(b[:n]),
		}, 0)
	}
	short, long := allocsForRun(10_000, run), allocsForRun(100_000, run)
	if short != long {
		t.Errorf("SMT New+Run allocations grow with length: %v at 10k, %v at 100k instructions per thread", short, long)
	}
}

// TestSMTFPQueueShareBinds checks that each thread's FP queue share is
// FPQSize/n, not the integer share: on an FP-heavy co-run a tiny FP queue
// caps the overlap of independent dependence chains and must cost cycles.
func TestSMTFPQueueShareBinds(t *testing.T) {
	fpHeavy := func(pcBase mem.Addr) trace.Stream {
		ins := make([]trace.Instr, 4000)
		for i := range ins {
			r := uint8(1 + i%8) // eight interleaved dependence chains
			ins[i] = trace.Instr{PC: pcBase + mem.Addr(i%16*4), Op: trace.FPOp, Dest: r, Src1: r}
		}
		return trace.NewSliceStream(ins)
	}
	cycles := func(fpq int) uint64 {
		cfg := DefaultConfig()
		cfg.FPQSize = fpq
		h := hier.MustNew(hier.DefaultConfig(), assist.MustNewBaseline(dmConfig(), 0))
		ms := MustNewSMT(cfg, h, 2).RunThreads([]trace.Stream{fpHeavy(0x1000), fpHeavy(0x2000)}, 0)
		return ms[0].Cycles
	}
	small, large := cycles(4), cycles(32)
	if small <= large {
		t.Errorf("FPQSize 4 took %d cycles, FPQSize 32 took %d: the FP queue share does not bind", small, large)
	}
}

// TestSMTFetchesThroughICache checks that every thread's front end goes
// through the hierarchy's instruction side: a co-run over an attached
// L1I records fetches and misses, and the misses cost cycles.
func TestSMTFetchesThroughICache(t *testing.T) {
	a, b := mixedInstrs(20_000, 0x1000), mixedInstrs(20_000, 0x90000)
	run := func(icache bool) (uint64, hier.IStats) {
		h := hier.MustNew(hier.DefaultConfig(), assist.MustNewBaseline(dmConfig(), 0))
		if icache {
			h.AttachI(assist.MustNewBaseline(cache.Config{Name: "L1I", Size: 1 << 10, LineSize: 64, Assoc: 1}, 0))
		}
		ms := MustNewSMT(DefaultConfig(), h, 2).RunThreads([]trace.Stream{
			trace.NewSliceStream(a), trace.NewSliceStream(b),
		}, 0)
		return ms[0].Cycles, h.IFetchStats()
	}
	perfect, _ := run(false)
	cycles, st := run(true)
	if st.Fetches == 0 || st.Misses == 0 {
		t.Fatalf("I-side stats %+v: the threads did not fetch through the I-cache", st)
	}
	if cycles <= perfect {
		t.Errorf("I-misses cost nothing: %d cycles with a 1KB L1I, %d with a perfect one", cycles, perfect)
	}
}
