// Package repro's root benchmarks regenerate every table and figure of the
// paper at test scale, reporting each artifact's headline number as a
// custom benchmark metric, plus ablation benches for the design decisions
// DESIGN.md calls out. Full-scale regeneration is cmd/paperbench; these
// benches exist so `go test -bench=.` exercises the entire reproduction
// pipeline and prints the metrics that matter.
//
// Metric conventions: rates and accuracies are reported in percent
// (suffix _pct), speedups as ratios (suffix _x).
package repro

import (
	"fmt"
	"testing"

	"repro/internal/amb"
	"repro/internal/assist"
	"repro/internal/exclude"
	"repro/internal/experiments"
	"repro/internal/hier"
	"repro/internal/sim"
	"repro/internal/workload"
)

// benchParams is the per-iteration scale: small enough that one iteration
// of the heaviest figure stays in single-digit seconds.
func benchParams() experiments.Params {
	return experiments.Params{MemAccesses: 60_000, Instructions: 60_000}
}

// BenchmarkFigure1 reproduces Figure 1: MCT classification accuracy per
// cache configuration (suite means reported; paper: 88/86% on 16KB DM).
func BenchmarkFigure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := must(experiments.Figure1(benchParams()))
		b.ReportMetric(100*r.MeanConflictAcc["16KB-DM"], "conflict_acc_16KB_DM_pct")
		b.ReportMetric(100*r.MeanCapacityAcc["16KB-DM"], "capacity_acc_16KB_DM_pct")
		b.ReportMetric(100*r.MeanOverallAcc["64KB-DM"], "overall_acc_64KB_DM_pct")
	}
}

// BenchmarkFigure2 reproduces Figure 2: accuracy vs stored tag bits
// (paper: 8-12 bits ≈ full tags; 1 bit halves capacity accuracy). It
// doubles as the tag-width ablation of DESIGN.md decision 1.
func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := must(experiments.Figure2(benchParams()))
		if one, ok := r.PointAt(1); ok {
			b.ReportMetric(100*one.CapacityAcc, "capacity_acc_1bit_pct")
		}
		if eight, ok := r.PointAt(8); ok {
			b.ReportMetric(100*eight.OverallAcc, "overall_acc_8bit_pct")
		}
		if full, ok := r.PointAt(experiments.TagBitsFull); ok {
			b.ReportMetric(100*full.OverallAcc, "overall_acc_fulltag_pct")
		}
	}
}

// BenchmarkFigure3 reproduces Figure 3: victim-cache policies (paper: the
// combined filter gains ~3% over the traditional victim cache).
func BenchmarkFigure3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := must(experiments.Figure3(benchParams()))
		b.ReportMetric(r.MeanSpeedup(1, 0), "traditional_speedup_x")
		b.ReportMetric(r.MeanSpeedup(2, 0), "filter_swaps_speedup_x")
		b.ReportMetric(r.MeanSpeedup(4, 0), "filter_both_speedup_x")
		b.ReportMetric(r.CombinedOverTraditional(), "combined_over_traditional_x")
	}
}

// BenchmarkTable1 reproduces Table 1: victim hit rates and swap/fill
// traffic (paper: fills 6.6->2.6, swaps 1.7->0.1).
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := must(experiments.Figure3(benchParams())).Table1()
		b.ReportMetric(rows[1].FillPct, "traditional_fills_pct")
		b.ReportMetric(rows[3].FillPct, "filtered_fills_pct")
		b.ReportMetric(rows[1].SwapPct, "traditional_swaps_pct")
		b.ReportMetric(rows[2].SwapPct, "filtered_swaps_pct")
		b.ReportMetric(rows[1].TotalHR-rows[3].TotalHR, "fill_filter_hr_cost_pp")
	}
}

// BenchmarkFigure4 reproduces Figure 4: next-line prefetch filtering
// (paper: ~25% prefetch-accuracy gain, little speedup change).
func BenchmarkFigure4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := must(experiments.Figure4(benchParams()))
		b.ReportMetric(100*r.Accuracy(1), "unfiltered_accuracy_pct")
		b.ReportMetric(100*r.Accuracy(5), "orfilter_accuracy_pct")
		b.ReportMetric(100*r.AccuracyGain(), "accuracy_gain_pct")
		b.ReportMetric(r.MeanSpeedup(1, 0), "unfiltered_speedup_x")
		b.ReportMetric(r.MeanSpeedup(5, 0), "orfilter_speedup_x")
	}
}

// BenchmarkFigure5 reproduces Figure 5: cache exclusion (paper: the simple
// capacity filter beats the Johnson-Hwu MAT on hit rate and speedup).
func BenchmarkFigure5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := must(experiments.Figure5(benchParams()))
		b.ReportMetric(100*r.MeanTotalHitRate(1), "mat_total_hr_pct")
		b.ReportMetric(100*r.MeanTotalHitRate(4), "capacity_total_hr_pct")
		b.ReportMetric(r.MeanSpeedup(1, 0), "mat_speedup_x")
		b.ReportMetric(r.MeanSpeedup(4, 0), "capacity_speedup_x")
	}
}

// BenchmarkPseudoAssoc reproduces the Section-5.4 numbers (paper: MCT
// policy +1.5% over the base pseudo-associative cache, within 0.9% of a
// true 2-way cache, miss rate 10.22%->9.83%).
func BenchmarkPseudoAssoc(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := must(experiments.PseudoAssoc(benchParams()))
		base, mct := r.MissRates()
		b.ReportMetric(r.MCTOverBase(), "mct_over_base_x")
		b.ReportMetric(r.MCTVsTwoWay(), "mct_vs_2way_x")
		b.ReportMetric(100*base, "base_missrate_pct")
		b.ReportMetric(100*mct, "mct_missrate_pct")
	}
}

// BenchmarkFigure6 reproduces Figure 6: the Adaptive Miss Buffer (paper:
// the best combination roughly doubles the best single policy's gain).
func BenchmarkFigure6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := must(experiments.Figure6(benchParams()))
		_, s := r.BestSingleGain()
		_, c := r.BestComboGain()
		b.ReportMetric(s, "best_single_speedup_x")
		b.ReportMetric(c, "best_combo_speedup_x")
		b.ReportMetric((c-1)/maxF(s-1, 1e-9), "gain_ratio_x")
		b.ReportMetric(100*r.MissRateReduction(), "missrate_reduction_pct")
	}
}

// BenchmarkFigure7 reproduces Figure 7: hit-rate components per AMB policy
// (reported for the winning VictPref configuration).
func BenchmarkFigure7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := must(experiments.Figure6(benchParams())).Figure7()
		for _, row := range rows {
			if row.System == "VictPref" {
				b.ReportMetric(row.DCacheHR, "victpref_dcache_pct")
				b.ReportMetric(row.VictimHR, "victpref_victim_pct")
				b.ReportMetric(row.PrefetchHR, "victpref_prefetch_pct")
				b.ReportMetric(row.MissRate, "victpref_miss_pct")
			}
		}
	}
}

// --- Ablation benches (DESIGN.md Section 5) -------------------------------

// BenchmarkAblationMCTSeeding isolates DESIGN.md decision 4: capacity
// exclusion with and without seeding the MCT for bypassed lines. Without
// seeding no bypassed line can ever classify conflict, so ever more misses
// divert to the bypass buffer and the cache starves.
func BenchmarkAblationMCTSeeding(b *testing.B) {
	bench, _ := workload.ByName("tomcatv")
	opt := sim.Options{Instructions: 60_000}
	for i := 0; i < b.N; i++ {
		seeded := sim.Run(bench, exclude.MustNew(sim.L1Config(), 0, exclude.DefaultEntries, exclude.ModeCapacity), opt)
		ablated := exclude.MustNew(sim.L1Config(), 0, exclude.DefaultEntries, exclude.ModeCapacity)
		ablated.DisableSeeding()
		unseeded := sim.Run(bench, ablated, opt)
		b.ReportMetric(seeded.IPC()/unseeded.IPC(), "seeding_speedup_x")
		b.ReportMetric(100*seeded.Sys.TotalHitRate(), "seeded_hr_pct")
		b.ReportMetric(100*unseeded.Sys.TotalHitRate(), "unseeded_hr_pct")
	}
}

// BenchmarkAblationMSHRs isolates DESIGN.md decision 6: the non-blocking
// depth. The paper's 16 MSHRs vs a nearly blocking cache (1) and an
// unconstrained one (64).
func BenchmarkAblationMSHRs(b *testing.B) {
	bench, _ := workload.ByName("swim")
	for i := 0; i < b.N; i++ {
		ipc := map[int]float64{}
		for _, mshrs := range []int{1, 4, 16, 64} {
			cfg := hier.DefaultConfig()
			cfg.MSHRs = mshrs
			r := sim.Run(bench, assist.MustNewBaseline(sim.L1Config(), 0),
				sim.Options{Instructions: 60_000, Hier: cfg})
			ipc[mshrs] = r.IPC()
		}
		b.ReportMetric(ipc[16]/ipc[1], "mshr16_over_1_x")
		b.ReportMetric(ipc[64]/ipc[16], "mshr64_over_16_x")
	}
}

// BenchmarkAblationBufferSize isolates the paper's buffer-size choice: the
// AMB's best combination at 4, 8, 16, and 32 entries (the paper shows the
// 8->16 step changing which combination wins).
func BenchmarkAblationBufferSize(b *testing.B) {
	bench, _ := workload.ByName("turb3d")
	opt := sim.Options{Instructions: 60_000}
	for i := 0; i < b.N; i++ {
		base := sim.Run(bench, assist.MustNewBaseline(sim.L1Config(), 0), opt)
		for _, entries := range []int{4, 8, 16, 32} {
			r := sim.Run(bench, mustAMBVictPref(entries), opt)
			b.ReportMetric(r.IPC()/base.IPC(), benchName("victpref_", entries, "_x"))
		}
	}
}

// BenchmarkRawSimulationThroughput measures the simulator itself:
// instructions simulated per second through the full CPU+hierarchy stack.
func BenchmarkRawSimulationThroughput(b *testing.B) {
	bench, _ := workload.ByName("gcc")
	b.ReportAllocs()
	b.ResetTimer()
	var instrs uint64
	for i := 0; i < b.N; i++ {
		r := sim.Run(bench, assist.MustNewBaseline(sim.L1Config(), 0), sim.Options{Instructions: 200_000})
		instrs += r.CPU.Instructions
	}
	b.ReportMetric(float64(instrs)/b.Elapsed().Seconds(), "sim_instrs/s")
}

// must unwraps an experiment's (result, error) pair; the bench harness
// installs no fault injection, so the error path is unreachable.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func benchName(prefix string, n int, suffix string) string {
	return fmt.Sprintf("%s%d%s", prefix, n, suffix)
}

func mustAMBVictPref(entries int) assist.System {
	return amb.MustNew(sim.L1Config(), 0, entries, amb.VictPref)
}

// --- Extension benches (paper Section 5.6, built out in this repo) --------

// BenchmarkReplacement measures the Sec-5.6 associative-replacement
// application: MCT-biased eviction over LRU at 4 and 8 ways.
func BenchmarkReplacement(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := must(experiments.Replacement(benchParams()))
		b.ReportMetric(r.MeanSpeedup(1, 0), "mct_over_lru_4way_x")
		b.ReportMetric(r.MeanSpeedup(3, 2), "mct_over_lru_8way_x")
	}
}

// BenchmarkRemap measures the Sec-5.6 page-recoloring application:
// conflict-counted remapping vs all-miss counting.
func BenchmarkRemap(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := must(experiments.Remap(benchParams()))
		ra, rc, ma, mc := r.RemapEfficiency()
		b.ReportMetric(float64(ra), "remaps_allmiss")
		b.ReportMetric(float64(rc), "remaps_conflict")
		b.ReportMetric(100*ma, "missrate_allmiss_pct")
		b.ReportMetric(100*mc, "missrate_conflict_pct")
	}
}

// BenchmarkMCTDepth measures the eviction-history-depth extension the
// paper names but does not evaluate: conflict accuracy rises with depth
// while capacity accuracy falls to false matches.
func BenchmarkMCTDepth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := must(experiments.MCTDepth(benchParams()))
		if d1, ok := r.PointAt(1); ok {
			b.ReportMetric(100*d1.OverallAcc, "overall_depth1_pct")
		}
		if d2, ok := r.PointAt(2); ok {
			b.ReportMetric(100*d2.ConflictAcc, "conflict_depth2_pct")
			b.ReportMetric(100*d2.CapacityAcc, "capacity_depth2_pct")
		}
	}
}

// BenchmarkSMT measures the Sec-5.6 multithreading claim with timing: the
// AMB's gain on a 2-thread shared cache vs on solo runs.
func BenchmarkSMT(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := must(experiments.SMTStudy(benchParams()))
		b.ReportMetric(r.PairGain(), "amb_gain_2thread_x")
		b.ReportMetric(r.SingleGain, "amb_gain_solo_x")
		b.ReportMetric(100*r.MeanPairConflictShare(), "conflict_share_2t_pct")
	}
}

// BenchmarkICache measures the instruction-cache extension: bare-I cost
// and the I-side victim buffer's recovery.
func BenchmarkICache(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := must(experiments.ICacheStudy(benchParams()))
		b.ReportMetric(r.ICacheCost(), "bare_over_perfect_x")
		b.ReportMetric(r.VictimGain(), "victim_over_bare_x")
	}
}

// BenchmarkConfigSweep measures the configuration-grid generalization of
// Figure 1: worst-case accuracy over sizes x associativities.
func BenchmarkConfigSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := must(experiments.ConfigSweep(benchParams()))
		b.ReportMetric(100*r.MinOverallAcc(), "worst_overall_acc_pct")
		if c, ok := r.CellAt(16, 1); ok {
			b.ReportMetric(100*c.ConflictShare, "conflict_share_16KB_DM_pct")
		}
		if c, ok := r.CellAt(16, 4); ok {
			b.ReportMetric(100*c.ConflictShare, "conflict_share_16KB_4way_pct")
		}
	}
}

// BenchmarkCoSchedule measures the Sec-5.6 SMT co-scheduling application:
// the spread between the best and worst pair's cross-conflict rate (the
// signal a scheduler would act on).
func BenchmarkCoSchedule(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := must(experiments.CoSchedule(benchParams()))
		if n := len(r.Pairs); n > 0 {
			b.ReportMetric(1000*r.Pairs[0].CrossConflictRate, "best_pair_cross_per_1k")
			b.ReportMetric(1000*r.Pairs[n-1].CrossConflictRate, "worst_pair_cross_per_1k")
		}
	}
}
