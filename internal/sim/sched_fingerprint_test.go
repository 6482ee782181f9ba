package sim

import (
	"fmt"
	"os"
	"sync"
	"testing"

	"repro/internal/amb"
	"repro/internal/assist"
	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/hier"
	"repro/internal/trace"
	"repro/internal/victim"
	"repro/internal/workload"
)

// schedFingerprintPath is the committed golden file for the timing model's
// issue scheduler. It was generated by polling schedulers (every unissued
// ROB entry polled each cycle): the single-threaded cells by the
// scan-based issue stage, the SMT cells by the separate SMT core. The test
// proves the one wakeup/select core reproduces their timing bit for bit:
// each cell hashes the full %+v rendering of its sim.Result (or, for SMT
// cells, of the per-thread metrics and the shared hierarchy's counters).
const schedFingerprintPath = "testdata/sched_fingerprints.json"

// Set SCHED_FP_UPDATE=1 to regenerate the golden file instead of checking
// it. Only do this deliberately: rewriting the file forfeits the
// bit-identical-to-scan guarantee and re-baselines on current behavior.
func schedFPUpdating() bool { return os.Getenv("SCHED_FP_UPDATE") == "1" }

// schedInstrs is the reduced cell length: long enough for every cell to
// reach steady-state ROB occupancy and MSHR pressure, short enough for the
// whole corpus to replay in about a second.
const schedInstrs = 25_000

// schedSystems are the paper-sim assist configurations.
var schedSystems = []struct {
	name string
	make func() assist.System
}{
	{"baseline", func() assist.System { return assist.MustNewBaseline(L1Config(), 0) }},
	{"victim-filterswaps", func() assist.System {
		return victim.MustNew(L1Config(), 0, assist.DefaultEntries, victim.FilterSwapsPolicy)
	}},
	{"amb-victpref", func() assist.System {
		return amb.MustNew(L1Config(), 0, assist.DefaultEntries, amb.VictPref)
	}},
}

// schedShapes are CPU shapes the 64-entry default never reaches: a narrow
// machine where issue width, functional units and queues all bind, a ROB
// spanning two mask words with a partial last word, and a four-word ROB
// (its queues widened so the ROB, not a queue, is the limit).
func schedShapes() []struct {
	name string
	cfg  cpu.Config
} {
	narrow := cpu.DefaultConfig()
	narrow.ROBSize, narrow.IntQSize, narrow.FPQSize = 16, 8, 8
	narrow.IssueWidth, narrow.LSUs, narrow.IntALUs, narrow.FPALUs = 2, 1, 1, 1
	rob96 := cpu.DefaultConfig()
	rob96.ROBSize, rob96.IntQSize, rob96.FPQSize = 96, 96, 96
	rob256 := cpu.DefaultConfig()
	rob256.ROBSize, rob256.IntQSize, rob256.FPQSize = 256, 256, 256
	return []struct {
		name string
		cfg  cpu.Config
	}{{"narrow", narrow}, {"rob96", rob96}, {"rob256", rob256}}
}

// schedThread is one hardware thread of a scheduler-corpus cell: the
// benchmark and seed its stream was drawn from, and the metrics the core
// reported for it.
type schedThread struct {
	bench *workload.Benchmark
	seed  uint64
	m     cpu.Metrics
}

// schedCell is one run of the scheduler corpus: its key, the value its
// fingerprint hashes, the CPU shape it ran on and its threads.
type schedCell struct {
	key     string
	hashed  any
	cfg     cpu.Config
	threads []schedThread
}

var (
	schedCellsOnce sync.Once
	schedCellsMemo []schedCell
)

// schedCells runs the scheduler corpus once per test binary; the
// fingerprint test and the count check both read it.
func schedCells() []schedCell {
	schedCellsOnce.Do(func() { schedCellsMemo = runSchedCells() })
	return schedCellsMemo
}

// longLatency returns the default hierarchy with L2 and memory latencies
// far beyond any plausible scheduling horizon of the core, at the given
// MSHR count, so operand arrivals land many hundreds of cycles out.
func longLatency(l2, memory, mshrs int) hier.Config {
	hc := hier.DefaultConfig()
	hc.L2Latency, hc.MemLatency, hc.MSHRs = l2, memory, mshrs
	return hc
}

// runSchedCells runs every cell of the corpus.
func runSchedCells() []schedCell {
	var cells []schedCell
	bench := func(name string) *workload.Benchmark {
		b, ok := workload.ByName(name)
		if !ok {
			panic(fmt.Sprintf("workload %q not registered", name))
		}
		return b
	}
	single := func(key string, b *workload.Benchmark, sys assist.System, opt Options) {
		r := Run(b, sys, opt)
		cfg := opt.withDefaults().CPU
		cells = append(cells, schedCell{key: key, hashed: r, cfg: cfg,
			threads: []schedThread{{bench: b, seed: workload.DefaultSeed, m: r.CPU}}})
	}

	// The paper-sim cells: every suite benchmark on the three systems.
	for _, b := range workload.Suite() {
		for _, s := range schedSystems {
			single("paper/"+b.Name+"/"+s.name, b, s.make(), Options{Instructions: schedInstrs})
		}
	}

	// Unusual CPU shapes, each with a single MSHR (loads and stores stall
	// and retry) and with the default sixteen.
	for _, wl := range fpWorkloads {
		for _, sh := range schedShapes() {
			for _, mshrs := range []int{1, 16} {
				hc := hier.DefaultConfig()
				hc.MSHRs = mshrs
				single(fmt.Sprintf("shape/%s/%s/mshr%d", wl, sh.name, mshrs),
					bench(wl), schedSystems[0].make(), Options{Instructions: schedInstrs, Hier: hc, CPU: sh.cfg})
			}
		}
	}

	// An attached instruction cache: I-misses stall fetch until
	// fetchResume, and the I-side buffer's prefetches compete for the
	// small I-MSHR pool.
	for _, wl := range []string{"gcc", "vortex"} {
		opt := Options{Instructions: schedInstrs}
		opt.ICache = func() assist.System {
			return amb.MustNew(cache.Config{Name: "L1I", Size: 4 << 10, LineSize: 64, Assoc: 1}, 0, assist.DefaultEntries, amb.VictPref)
		}
		single("icache/"+wl, bench(wl), schedSystems[2].make(), opt)
	}

	// A run cut by MaxCycles mid-stall rather than by the retire target.
	bounded := cpu.DefaultConfig()
	bounded.MaxCycles = 7_777
	single("maxcycles/swim", bench("swim"), schedSystems[0].make(), Options{Instructions: 1 << 30, CPU: bounded})

	// Long latencies: operands of L2 hits and of memory fills arrive
	// hundreds to thousands of cycles after they issue, and queue behind
	// each other on the buses, at one MSHR and sixteen.
	lats := []struct {
		name       string
		l2, memory int
	}{{"mem1000", 20, 1_000}, {"l2400-mem2000", 400, 2_000}}
	for _, lat := range lats {
		for _, mshrs := range []int{1, 16} {
			for _, wl := range []string{"swim", "gcc"} {
				single(fmt.Sprintf("long/%s/%s/mshr%d", wl, lat.name, mshrs),
					bench(wl), schedSystems[2].make(), Options{Instructions: schedInstrs, Hier: longLatency(lat.l2, lat.memory, mshrs)})
			}
		}
	}

	// SMT co-runs over one shared hierarchy: each thread runs its suite
	// benchmark at its own seed, and the cell hashes every thread's
	// metrics with the shared counters.
	smt := func(key string, cfg cpu.Config, hc hier.Config, s int, names []string, perThread uint64) {
		sys := schedSystems[s].make()
		h := hier.MustNew(hc, sys)
		streams := make([]trace.Stream, len(names))
		threads := make([]schedThread, len(names))
		for i, n := range names {
			threads[i] = schedThread{bench: bench(n), seed: workload.DefaultSeed + uint64(i)}
			streams[i] = threads[i].bench.Stream(threads[i].seed)
		}
		ms := cpu.MustNewSMT(cfg, h, len(names)).RunThreads(streams, perThread)
		for i := range threads {
			threads[i].m = ms[i]
		}
		cells = append(cells, schedCell{key: key, cfg: cfg, threads: threads, hashed: struct {
			CPU  []cpu.Metrics
			Sys  assist.Stats
			Hier hier.Stats
		}{ms, sys.Stats(), h.Stats()}})
	}
	pairs := [][]string{{"swim", "gcc"}, {"tomcatv", "vortex"}}
	for _, pair := range pairs {
		for _, s := range []int{0, 2} {
			smt(fmt.Sprintf("smt/%s+%s/%s", pair[0], pair[1], schedSystems[s].name),
				cpu.DefaultConfig(), hier.DefaultConfig(), s, pair, schedInstrs/2)
		}
	}
	// Two threads on the narrow shape (8-entry partitions, one retire per
	// thread per cycle) and on rob96 (48-entry partitions, a partial mask
	// word), at one MSHR and sixteen; four threads on rob256; and a
	// two-thread run cut by MaxCycles.
	for _, pair := range pairs {
		for _, sh := range schedShapes()[:2] {
			for _, mshrs := range []int{1, 16} {
				hc := hier.DefaultConfig()
				hc.MSHRs = mshrs
				smt(fmt.Sprintf("smt-shape/%s+%s/%s/mshr%d", pair[0], pair[1], sh.name, mshrs),
					sh.cfg, hc, 0, pair, schedInstrs/2)
			}
		}
	}
	quad := []string{"swim", "gcc", "tomcatv", "vortex"}
	for _, s := range []int{0, 2} {
		smt("smt4/rob256/"+schedSystems[s].name, schedShapes()[2].cfg, hier.DefaultConfig(), s, quad, schedInstrs/4)
	}
	smt("smt-maxcycles/swim+gcc", bounded, hier.DefaultConfig(), 0, pairs[0], 1<<30)
	// Two threads at the long latencies.
	for _, lat := range lats {
		for _, mshrs := range []int{1, 16} {
			smt(fmt.Sprintf("smt-long/swim+gcc/%s/mshr%d", lat.name, mshrs),
				cpu.DefaultConfig(), longLatency(lat.l2, lat.memory, mshrs), 2, pairs[0], schedInstrs/2)
		}
	}
	return cells
}

// schedFingerprints hashes every cell.
func schedFingerprints() map[string]string {
	out := map[string]string{}
	for _, c := range schedCells() {
		out[c.key] = sha256Hex([]byte(fmt.Sprintf("%+v", c.hashed)))
	}
	return out
}

// TestSchedulerFingerprintsMatchScan pins the OoO timing model's issue
// stage to the timing the scan-based scheduler produced, across the
// paper-sim cells, non-default CPU shapes at one and sixteen MSHRs, an
// I-cache-attached run, a MaxCycles-bounded run, SMT co-runs at two and
// four threads on those shapes, and runs at one and two threads whose L2
// and memory latencies reach far past any plausible wakeup horizon.
func TestSchedulerFingerprintsMatchScan(t *testing.T) {
	matchFingerprints(t, schedFingerprintPath, schedFPUpdating(), "SCHED_FP_UPDATE=1", schedFingerprints())
}

// TestSchedulerCountsMatchStreamTally checks every scheduler-corpus cell's
// per-thread counts against a tally of the thread's own stream, made
// without the core: the first Instructions records of the stream must hold
// exactly the reported loads, stores and branches. Mispredicts cannot
// exceed branches, and no thread can retire faster than the fetch width
// or its share of the retire width allows.
func TestSchedulerCountsMatchStreamTally(t *testing.T) {
	ceil := func(n uint64, w int) uint64 { return (n + uint64(w) - 1) / uint64(w) }
	for _, c := range schedCells() {
		retireWidth := max(1, c.cfg.IssueWidth/len(c.threads))
		for ti, th := range c.threads {
			m := th.m
			var loads, stores, branches uint64
			s := th.bench.Stream(th.seed)
			var in trace.Instr
			for i := uint64(0); i < m.Instructions; i++ {
				if !s.Next(&in) {
					t.Fatalf("%s thread %d: stream ended after %d of %d records", c.key, ti, i, m.Instructions)
				}
				switch in.Op {
				case trace.Load:
					loads++
				case trace.Store:
					stores++
				case trace.Branch:
					branches++
				}
			}
			if m.Loads != loads || m.Stores != stores || m.Branches != branches {
				t.Errorf("%s thread %d: core counted %d loads, %d stores, %d branches; the stream's first %d records hold %d, %d, %d",
					c.key, ti, m.Loads, m.Stores, m.Branches, m.Instructions, loads, stores, branches)
			}
			if m.Mispredicts > m.Branches {
				t.Errorf("%s thread %d: %d mispredicts of %d branches", c.key, ti, m.Mispredicts, m.Branches)
			}
			if f := ceil(m.Instructions, c.cfg.FetchWidth); m.Cycles < f {
				t.Errorf("%s thread %d: %d instructions in %d cycles; fetch width %d needs at least %d",
					c.key, ti, m.Instructions, m.Cycles, c.cfg.FetchWidth, f)
			}
			if r := ceil(m.Instructions, retireWidth); m.Cycles < r {
				t.Errorf("%s thread %d: %d instructions in %d cycles; retire width %d needs at least %d",
					c.key, ti, m.Instructions, m.Cycles, retireWidth, r)
			}
		}
	}
}
