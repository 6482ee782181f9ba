package experiments

import (
	"context"
	"fmt"

	"repro/internal/assist"
	"repro/internal/assoc"
	"repro/internal/cache"
	"repro/internal/mt"
	"repro/internal/remap"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// The three Section-5.6 "other applications" the paper sketches, built and
// measured: replacement bias in associative caches, page recoloring driven
// by conflict counting, and thread co-scheduling from cross-thread
// conflict rates.

// ReplacementSystems lists the associative-replacement study's systems.
var ReplacementSystems = []string{"4way-lru", "4way-mct", "8way-lru", "8way-mct"}

// ReplacementResult carries the Sec-5.6 highly-associative-cache study.
type ReplacementResult struct {
	TimingSeries
}

// Replacement compares plain LRU with MCT-biased replacement in 4- and
// 8-way caches of the paper's L1 size. The paper predicts modest effects
// on this suite ("unfortunately, [conflict misses with 4-way or higher
// associativity are] not in general true of the workloads used in this
// paper"), which is itself the reproduction target: the bias must not
// hurt, and the gain concentrates in the conflict-heavy benchmarks.
func Replacement(p Params) (ReplacementResult, error) {
	p = p.withDefaults()
	mk := func(ways int, useMCT bool) sim.SystemFactory {
		cfg := cache.Config{Name: "L1D", Size: 16 << 10, LineSize: 64, Assoc: ways}
		return func() assist.System { return assoc.MustNew(cfg, TagBitsFull, useMCT) }
	}
	factories := []sim.SystemFactory{
		mk(4, false), mk(4, true), mk(8, false), mk(8, true),
	}
	opt := sim.Options{Instructions: p.Instructions, Seed: p.Seed}
	ts, err := runTiming(ReplacementSystems, factories, opt)
	if err != nil {
		return ReplacementResult{}, err
	}
	return ReplacementResult{ts}, nil
}

// Table renders the replacement study: IPC ratios of MCT-biased over LRU
// per associativity.
func (r ReplacementResult) Table() *stats.Table {
	t := stats.NewTable("Sec 5.6: MCT-biased replacement in associative caches",
		"benchmark", "4way mct/lru", "8way mct/lru")
	for bi, b := range r.Benches {
		t.AddRow(b,
			fmt.Sprintf("%.3f", r.Speedup(bi, 1, 0)),
			fmt.Sprintf("%.3f", r.Speedup(bi, 3, 2)))
	}
	t.AddRow("GEOMEAN",
		fmt.Sprintf("%.3f", r.MeanSpeedup(1, 0)),
		fmt.Sprintf("%.3f", r.MeanSpeedup(3, 2)))
	return t
}

// RemapRow is one benchmark's page-recoloring comparison.
type RemapRow struct {
	Bench string
	// MissRate per policy, and remap counts for the two active policies.
	MissRate      [3]float64 // no-remap, count-all, count-conflict
	RemapsAll     uint64
	RemapsConfl   uint64
	ConflictShare float64
}

// RemapResult carries the Sec-5.6 runtime-conflict-avoidance study.
type RemapResult struct {
	Rows []RemapRow
}

// Remap measures page recoloring on the carried suite: the MCT-counted
// variant should match or beat all-miss counting on miss rate while
// performing far fewer remaps (each remap is an OS page copy, so fewer is
// better at equal miss rate).
func Remap(p Params) (RemapResult, error) {
	p = p.withDefaults()
	benches := workload.Carried()
	rows, err := runner.MapN(context.Background(), len(benches),
		func(i int) string { return "remap/" + benches[i].Name },
		func(_ context.Context, bi int) (RemapRow, error) {
			b := benches[bi]
			row := RemapRow{Bench: b.Name}
			for pi, pol := range []remap.Policy{remap.NoRemap, remap.CountAll, remap.CountConflict} {
				s := remap.MustNew(sim.L1Config(), remap.DefaultConfig(), pol)
				st := b.MemStream(p.Seed)
				var in trace.Instr
				for n := uint64(0); n < p.MemAccesses && st.Next(&in); n++ {
					s.Access(in.Addr, in.Op == trace.Store)
				}
				stats := s.Stats()
				row.MissRate[pi] = float64(stats.Misses) / float64(stats.Accesses)
				switch pol {
				case remap.CountAll:
					row.RemapsAll = stats.Remaps
				case remap.CountConflict:
					row.RemapsConfl = stats.Remaps
					if stats.Misses > 0 {
						row.ConflictShare = float64(stats.Conflicts) / float64(stats.Misses)
					}
				}
			}
			return row, nil
		})
	if err != nil {
		return RemapResult{}, err
	}
	return RemapResult{Rows: rows}, nil
}

// Table renders the recoloring study.
func (r RemapResult) Table() *stats.Table {
	t := stats.NewTable("Sec 5.6: conflict-counted page recoloring",
		"benchmark", "miss% none", "miss% all", "miss% confl", "remaps all", "remaps confl")
	for _, row := range r.Rows {
		t.AddRow(row.Bench,
			fmt.Sprintf("%.2f", 100*row.MissRate[0]),
			fmt.Sprintf("%.2f", 100*row.MissRate[1]),
			fmt.Sprintf("%.2f", 100*row.MissRate[2]),
			fmt.Sprint(row.RemapsAll),
			fmt.Sprint(row.RemapsConfl))
	}
	return t
}

// RemapEfficiency returns the headline comparison: total remaps performed
// by the two counting policies, and their mean miss rates. The MCT
// variant's value is doing (almost) as well with (far) fewer page copies.
func (r RemapResult) RemapEfficiency() (remapsAll, remapsConfl uint64, missAll, missConfl float64) {
	var a1, a2 []float64
	for _, row := range r.Rows {
		remapsAll += row.RemapsAll
		remapsConfl += row.RemapsConfl
		a1 = append(a1, row.MissRate[1])
		a2 = append(a2, row.MissRate[2])
	}
	return remapsAll, remapsConfl, stats.Mean(a1), stats.Mean(a2)
}

// CoScheduleResult carries the Sec-5.6 multithreading study.
type CoScheduleResult struct {
	Pairs []mt.PairScore
}

// CoSchedule builds the pairwise cross-thread-conflict matrix over a
// representative subset of the suite (full 16-benchmark pairing is 120
// shared runs; the subset keeps the default scale interactive).
func CoSchedule(p Params) (CoScheduleResult, error) {
	p = p.withDefaults()
	names := []string{"tomcatv", "swim", "gcc", "go", "li", "wave5"}
	benches := make([]*workload.Benchmark, 0, len(names))
	for _, n := range names {
		if b, ok := workload.ByName(n); ok {
			benches = append(benches, b)
		}
	}
	cfg := mt.DefaultConfig()
	cfg.AccessesPerThread = p.MemAccesses / 2
	cfg.Seed = p.Seed
	pairs, err := mt.CoScheduleMatrix(benches, cfg)
	if err != nil {
		return CoScheduleResult{}, fmt.Errorf("experiments: co-schedule: %w", err)
	}
	return CoScheduleResult{Pairs: pairs}, nil
}

// Table renders the co-schedule ranking, best pairs first.
func (r CoScheduleResult) Table() *stats.Table {
	t := stats.NewTable("Sec 5.6: co-schedule ranking by cross-thread conflict rate",
		"pair", "cross-conflicts/1k acc", "combined miss %")
	for _, s := range r.Pairs {
		t.AddRow(s.A+"+"+s.B,
			fmt.Sprintf("%.2f", 1000*s.CrossConflictRate),
			fmt.Sprintf("%.2f", 100*s.CombinedMissRate))
	}
	return t
}
