package cpu

import (
	"runtime/debug"
	"testing"

	"repro/internal/assist"
	"repro/internal/cache"
	"repro/internal/hier"
	"repro/internal/mem"
	"repro/internal/trace"
)

func dmConfig() cache.Config {
	return cache.Config{Name: "t", Size: 16 * 1024, LineSize: 64, Assoc: 1}
}

func newCPU(t *testing.T, cfg Config) *CPU {
	t.Helper()
	h := hier.MustNew(hier.DefaultConfig(), assist.MustNewBaseline(dmConfig(), 0))
	return MustNew(cfg, h)
}

func TestConfigValidation(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default invalid: %v", err)
	}
	bad := []func(*Config){
		func(c *Config) { c.FetchWidth = 0 },
		func(c *Config) { c.IssueWidth = 0 },
		func(c *Config) { c.ROBSize = 0 },
		func(c *Config) { c.IntQSize = 0 },
		func(c *Config) { c.LSUs = 0 },
		func(c *Config) { c.PredictorSz = 100 },
	}
	for i, m := range bad {
		c := DefaultConfig()
		m(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestRunsToStreamEnd(t *testing.T) {
	c := newCPU(t, DefaultConfig())
	ins := make([]trace.Instr, 100)
	for i := range ins {
		ins[i] = trace.Instr{PC: mem.Addr(i * 4), Op: trace.IntOp, Dest: uint8(1 + i%60)}
	}
	m := c.Run(trace.NewSliceStream(ins), 0)
	if m.Instructions != 100 {
		t.Errorf("retired %d, want 100", m.Instructions)
	}
	if m.Cycles == 0 || m.IPC() <= 0 {
		t.Error("no cycles accounted")
	}
}

func TestRetireTargetHonored(t *testing.T) {
	c := newCPU(t, DefaultConfig())
	ins := make([]trace.Instr, 1000)
	for i := range ins {
		ins[i] = trace.Instr{PC: mem.Addr(i * 4), Op: trace.IntOp, Dest: uint8(1 + i%60)}
	}
	m := c.Run(trace.NewSliceStream(ins), 50)
	if m.Instructions < 50 || m.Instructions > 58 {
		t.Errorf("retired %d, want ~50", m.Instructions)
	}
}

func TestIndependentIntOpsSustainWideIssue(t *testing.T) {
	cfg := DefaultConfig()
	c := newCPU(t, cfg)
	ins := make([]trace.Instr, 4000)
	for i := range ins {
		ins[i] = trace.Instr{PC: mem.Addr(i % 16 * 4), Op: trace.IntOp, Dest: uint8(1 + i%60)}
	}
	m := c.Run(trace.NewSliceStream(ins), 0)
	// Independent single-cycle ops should sustain several per cycle
	// (bounded by fetch/issue width 8 and ALU count).
	if ipc := m.IPC(); ipc < 3 {
		t.Errorf("independent int IPC = %.2f, want > 3", ipc)
	}
}

func TestSerialChainBoundsIPC(t *testing.T) {
	c := newCPU(t, DefaultConfig())
	// Every instruction depends on the previous one: IPC can't beat 1.
	ins := make([]trace.Instr, 2000)
	for i := range ins {
		ins[i] = trace.Instr{PC: 0x40, Op: trace.IntOp, Dest: 5, Src1: 5}
	}
	m := c.Run(trace.NewSliceStream(ins), 0)
	if ipc := m.IPC(); ipc > 1.05 {
		t.Errorf("serial chain IPC = %.2f, must be <= ~1", ipc)
	}
}

func TestFPDivChainIsSlow(t *testing.T) {
	c := newCPU(t, DefaultConfig())
	ins := make([]trace.Instr, 500)
	for i := range ins {
		ins[i] = trace.Instr{PC: 0x40, Op: trace.FPDiv, Dest: 5, Src1: 5}
	}
	m := c.Run(trace.NewSliceStream(ins), 0)
	// Each divide takes 16 cycles and they are serialized.
	if ipc := m.IPC(); ipc > 1.0/12 {
		t.Errorf("serial fdiv IPC = %.3f, want <= %.3f", ipc, 1.0/12)
	}
}

func TestRepeatedSourceRegisterIsOneDependence(t *testing.T) {
	// x = x op x names one producer twice; it must wake exactly like
	// x = x op r0, not wait forever for a second wakeup.
	run := func(src2 uint8) Metrics {
		cfg := DefaultConfig()
		cfg.MaxCycles = 1_000_000 // a lost wakeup would otherwise spin
		ins := make([]trace.Instr, 300)
		for i := range ins {
			ins[i] = trace.Instr{PC: 0x40, Op: trace.FPDiv, Dest: 5, Src1: 5, Src2: src2}
		}
		return newCPU(t, cfg).Run(trace.NewSliceStream(ins), 0)
	}
	twice, once := run(5), run(trace.RegZero)
	if twice.Instructions != 300 || twice != once {
		t.Errorf("repeated source: %+v; single source: %+v", twice, once)
	}
}

func TestLoadMissLatencyVisible(t *testing.T) {
	// A serial chain of loads, each to a fresh line: every load costs a
	// full memory round trip.
	c := newCPU(t, DefaultConfig())
	ins := make([]trace.Instr, 200)
	for i := range ins {
		ins[i] = trace.Instr{PC: 0x80, Op: trace.Load, Dest: 7, Src1: 7, Addr: mem.Addr(0x100000 + i*577*64)}
	}
	m := c.Run(trace.NewSliceStream(ins), 0)
	if cpl := float64(m.Cycles) / float64(m.Instructions); cpl < 50 {
		t.Errorf("serial missing loads: %.1f cycles each, want >= 50", cpl)
	}
	// The same chain hitting one resident line is fast.
	c2 := newCPU(t, DefaultConfig())
	ins2 := make([]trace.Instr, 200)
	for i := range ins2 {
		ins2[i] = trace.Instr{PC: 0x80, Op: trace.Load, Dest: 7, Src1: 7, Addr: 0x3000}
	}
	m2 := c2.Run(trace.NewSliceStream(ins2), 0)
	if m2.Cycles >= m.Cycles/5 {
		t.Errorf("hit chain (%d cyc) should be far faster than miss chain (%d cyc)", m2.Cycles, m.Cycles)
	}
}

func TestIndependentLoadsOverlap(t *testing.T) {
	// Independent missing loads should overlap in the MSHRs: much faster
	// than the serial chain.
	serial := newCPU(t, DefaultConfig())
	indep := newCPU(t, DefaultConfig())
	n := 200
	mkSerial := make([]trace.Instr, n)
	mkIndep := make([]trace.Instr, n)
	for i := 0; i < n; i++ {
		addr := mem.Addr(0x100000 + i*577*64)
		mkSerial[i] = trace.Instr{PC: 0x80, Op: trace.Load, Dest: 7, Src1: 7, Addr: addr}
		mkIndep[i] = trace.Instr{PC: 0x80, Op: trace.Load, Dest: uint8(1 + i%60), Addr: addr}
	}
	ms := serial.Run(trace.NewSliceStream(mkSerial), 0)
	mi := indep.Run(trace.NewSliceStream(mkIndep), 0)
	if mi.Cycles*3 > ms.Cycles {
		t.Errorf("independent loads (%d cyc) should be >3x faster than serial (%d cyc)", mi.Cycles, ms.Cycles)
	}
}

func TestBranchPredictionLearnsLoops(t *testing.T) {
	c := newCPU(t, DefaultConfig())
	// A loop branch taken 15 of 16 times: the 2-bit predictor should do
	// well after warmup.
	ins := make([]trace.Instr, 3200)
	for i := range ins {
		if i%4 == 3 {
			ins[i] = trace.Instr{PC: 0x100, Op: trace.Branch, Taken: (i/4)%16 != 15}
		} else {
			ins[i] = trace.Instr{PC: mem.Addr(i % 4 * 4), Op: trace.IntOp, Dest: uint8(1 + i%60)}
		}
	}
	m := c.Run(trace.NewSliceStream(ins), 0)
	if m.Branches == 0 {
		t.Fatal("no branches retired")
	}
	if rate := m.MispredictRate(); rate > 0.15 {
		t.Errorf("loop mispredict rate = %.2f", rate)
	}
}

func TestMispredictsCostCycles(t *testing.T) {
	run := func(taken func(i int) bool) Metrics {
		c := newCPU(t, DefaultConfig())
		ins := make([]trace.Instr, 4000)
		for i := range ins {
			if i%2 == 1 {
				ins[i] = trace.Instr{PC: 0x200, Op: trace.Branch, Taken: taken(i)}
			} else {
				ins[i] = trace.Instr{PC: 0x40, Op: trace.IntOp, Dest: uint8(1 + i%60)}
			}
		}
		return c.Run(trace.NewSliceStream(ins), 0)
	}
	predictable := run(func(i int) bool { return true })
	// Alternating taken/not-taken defeats a 2-bit counter half the time.
	hostile := run(func(i int) bool { return (i/2)%2 == 0 })
	if hostile.Mispredicts <= predictable.Mispredicts {
		t.Fatalf("hostile branches mispredict more: %d vs %d", hostile.Mispredicts, predictable.Mispredicts)
	}
	if hostile.Cycles <= predictable.Cycles {
		t.Errorf("mispredicts should cost cycles: %d vs %d", hostile.Cycles, predictable.Cycles)
	}
}

func TestStoresDoNotBlockRetirement(t *testing.T) {
	c := newCPU(t, DefaultConfig())
	ins := make([]trace.Instr, 400)
	for i := range ins {
		ins[i] = trace.Instr{PC: 0x40, Op: trace.Store, Addr: mem.Addr(0x100000 + i*577*64), Src1: 0}
	}
	m := c.Run(trace.NewSliceStream(ins), 0)
	// Missing stores drain through the store buffer: far cheaper than
	// missing loads.
	if cpl := float64(m.Cycles) / float64(m.Instructions); cpl > 20 {
		t.Errorf("stores cost %.1f cycles each; store buffer broken", cpl)
	}
}

// TestMaxCyclesBound runs a stream of missing loads far longer than the
// bound, so the run is cut mid-stall, and checks it reports exactly
// MaxCycles cycles.
func TestMaxCyclesBound(t *testing.T) {
	ins := make([]trace.Instr, 100000)
	for i := range ins {
		ins[i] = trace.Instr{PC: 0x80, Op: trace.Load, Dest: 7, Src1: 7, Addr: mem.Addr(0x100000 + i*577*64)}
	}
	for _, bound := range []uint64{1, 100, 7777} {
		cfg := DefaultConfig()
		cfg.MaxCycles = bound
		m := newCPU(t, cfg).Run(trace.NewSliceStream(ins), 0)
		if m.Cycles != bound {
			t.Errorf("MaxCycles %d: run reported %d cycles", bound, m.Cycles)
		}
	}
}

func TestMetricsCounts(t *testing.T) {
	c := newCPU(t, DefaultConfig())
	ins := []trace.Instr{
		{Op: trace.Load, Dest: 1, Addr: 0x1000},
		{Op: trace.Store, Addr: 0x1000, Src1: 1},
		{Op: trace.Branch, Taken: true},
		{Op: trace.IntOp, Dest: 2},
	}
	m := c.Run(trace.NewSliceStream(ins), 0)
	if m.Loads != 1 || m.Stores != 1 || m.Branches != 1 || m.Instructions != 4 {
		t.Errorf("metrics = %+v", m)
	}
}

func TestDeterministicRuns(t *testing.T) {
	mk := func() Metrics {
		c := newCPU(t, DefaultConfig())
		ins := make([]trace.Instr, 3000)
		for i := range ins {
			switch i % 5 {
			case 0:
				ins[i] = trace.Instr{PC: mem.Addr(i * 4), Op: trace.Load, Dest: uint8(1 + i%60), Addr: mem.Addr(i * 937 % 100000 * 64)}
			case 1:
				ins[i] = trace.Instr{PC: mem.Addr(i * 4), Op: trace.Branch, Taken: i%3 == 0}
			default:
				ins[i] = trace.Instr{PC: mem.Addr(i * 4), Op: trace.IntOp, Dest: uint8(1 + i%60), Src1: uint8(1 + (i+30)%60)}
			}
		}
		return c.Run(trace.NewSliceStream(ins), 0)
	}
	if mk() != mk() {
		t.Error("CPU runs are not deterministic")
	}
}

// mixedInstrs is a deterministic instruction mix covering every operation
// class: loads and stores spread over many lines (so some miss and hold
// MSHRs), dependence chains through both source operands (including a
// repeated source register), FP work, and branches with an irregular
// outcome pattern.
func mixedInstrs(n int, pcBase mem.Addr) []trace.Instr {
	ins := make([]trace.Instr, n)
	for i := range ins {
		pc := pcBase + mem.Addr(i%512*4)
		r := func(k int) uint8 { return uint8(1 + (i+k)%60) }
		switch i % 8 {
		case 0, 4:
			ins[i] = trace.Instr{PC: pc, Op: trace.Load, Dest: r(0), Src1: r(7), Addr: mem.Addr(i * 937 % 50000 * 64)}
		case 1:
			ins[i] = trace.Instr{PC: pc, Op: trace.Store, Src1: r(1), Src2: r(3), Addr: mem.Addr(i * 541 % 20000 * 64)}
		case 2:
			ins[i] = trace.Instr{PC: pc, Op: trace.FPOp, Dest: r(5), Src1: r(2), Src2: r(2)}
		case 3:
			ins[i] = trace.Instr{PC: pc, Op: trace.Branch, Src1: r(1), Taken: i%3 != 0}
		case 5:
			ins[i] = trace.Instr{PC: pc, Op: trace.IntMul, Dest: r(9), Src1: r(4), Src2: r(1)}
		default:
			ins[i] = trace.Instr{PC: pc, Op: trace.IntOp, Dest: r(2), Src1: r(1)}
		}
	}
	return ins
}

// allocsForRun reports the allocations of one full run (construction
// included) over an n-instruction stream. The collector is off while it
// measures (SetGCPercent(-1) also waits out a cycle in progress): a GC
// cycle starting inside the sample spawns background mark workers, whose
// goroutines and worker nodes count as mallocs of the sample too. The
// malloc counter is process-wide, so a sample can still catch a stray
// allocation of another goroutine (under heavy load the first sample of a
// test occasionally read one malloc high); strays only add, so the fewest
// of three samples is the run's own count.
func allocsForRun(n int, run func(n int)) float64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	fewest := testing.AllocsPerRun(1, func() { run(n) })
	for i := 0; i < 2; i++ {
		fewest = min(fewest, testing.AllocsPerRun(1, func() { run(n) }))
	}
	return fewest
}

// TestRunAllocationsIndependentOfLength pins the scheduler's storage as
// preallocated: building a CPU and running it allocates the same at 10k
// and 100k instructions, so nothing is allocated per instruction or per
// cycle.
func TestRunAllocationsIndependentOfLength(t *testing.T) {
	ins := mixedInstrs(100_000, 0x1000)
	run := func(n int) {
		h := hier.MustNew(hier.DefaultConfig(), assist.MustNewBaseline(dmConfig(), 0))
		MustNew(DefaultConfig(), h).Run(trace.NewSliceStream(ins[:n]), 0)
	}
	short, long := allocsForRun(10_000, run), allocsForRun(100_000, run)
	if short != long {
		t.Errorf("New+Run allocations grow with length: %v at 10k, %v at 100k instructions", short, long)
	}
}
