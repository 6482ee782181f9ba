package sim

import (
	"fmt"
	"os"
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

// schedFingerprints computes every cell's hash.
func schedFingerprints(t *testing.T) map[string]string {
	t.Helper()
	out := map[string]string{}
	record := func(key string, v any) { out[key] = sha256Hex([]byte(fmt.Sprintf("%+v", v))) }
	bench := func(name string) *workload.Benchmark {
		b, ok := workload.ByName(name)
		if !ok {
			t.Fatalf("workload %q not registered", name)
		}
		return b
	}

	// The paper-sim cells: every suite benchmark on the three systems.
	for _, b := range workload.Suite() {
		for _, s := range schedSystems {
			record("paper/"+b.Name+"/"+s.name, Run(b, s.make(), Options{Instructions: schedInstrs}))
		}
	}

	// Unusual CPU shapes, each with a single MSHR (loads and stores stall
	// and retry) and with the default sixteen.
	for _, wl := range fpWorkloads {
		for _, sh := range schedShapes() {
			for _, mshrs := range []int{1, 16} {
				hc := hier.DefaultConfig()
				hc.MSHRs = mshrs
				record(fmt.Sprintf("shape/%s/%s/mshr%d", wl, sh.name, mshrs),
					Run(bench(wl), schedSystems[0].make(), Options{Instructions: schedInstrs, Hier: hc, CPU: sh.cfg}))
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
		record("icache/"+wl, Run(bench(wl), schedSystems[2].make(), opt))
	}

	// A run cut by MaxCycles mid-stall rather than by the retire target.
	bounded := cpu.DefaultConfig()
	bounded.MaxCycles = 7_777
	record("maxcycles/swim", Run(bench("swim"), schedSystems[0].make(), Options{Instructions: 1 << 30, CPU: bounded}))

	// SMT co-runs over one shared hierarchy: each thread runs its suite
	// benchmark at its own seed, and the cell hashes every thread's
	// metrics with the shared counters.
	smt := func(key string, cfg cpu.Config, hc hier.Config, s int, names []string, perThread uint64) {
		sys := schedSystems[s].make()
		h := hier.MustNew(hc, sys)
		streams := make([]trace.Stream, len(names))
		for i, n := range names {
			streams[i] = bench(n).Stream(workload.DefaultSeed + uint64(i))
		}
		ms := cpu.MustNewSMT(cfg, h, len(names)).RunThreads(streams, perThread)
		record(key, struct {
			CPU  []cpu.Metrics
			Sys  assist.Stats
			Hier hier.Stats
		}{ms, sys.Stats(), h.Stats()})
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
	return out
}

// TestSchedulerFingerprintsMatchScan pins the OoO timing model's issue
// stage to the timing the scan-based scheduler produced, across the
// paper-sim cells, non-default CPU shapes at one and sixteen MSHRs, an
// I-cache-attached run, a MaxCycles-bounded run, and SMT co-runs at two
// and four threads on those shapes.
func TestSchedulerFingerprintsMatchScan(t *testing.T) {
	matchFingerprints(t, schedFingerprintPath, schedFPUpdating(), "SCHED_FP_UPDATE=1", schedFingerprints(t))
}
