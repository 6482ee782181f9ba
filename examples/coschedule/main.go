// Co-scheduling: the Section-5.6 multithreading application end to end.
// Threads sharing one data cache inflict conflict misses on each other
// that neither thread can avoid alone; the Miss Classification Table
// attributes them, a scheduler ranks job pairs by cross-thread conflict
// production, and an SMT timing run shows the ranking predicting real
// throughput differences.
//
//	go run ./examples/coschedule
package main

import (
	"fmt"

	"repro/internal/assist"
	"repro/internal/cpu"
	"repro/internal/hier"
	"repro/internal/mt"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	names := []string{"go", "li", "swim", "tomcatv"}
	benches := make([]*workload.Benchmark, len(names))
	for i, n := range names {
		benches[i], _ = workload.ByName(n)
	}

	// Step 1: the MCT-based interference matrix (functional, fast).
	cfg := mt.DefaultConfig()
	cfg.AccessesPerThread = 100_000
	pairs, err := mt.CoScheduleMatrix(benches, cfg)
	if err != nil {
		panic(err)
	}
	t := stats.NewTable("cross-thread conflict matrix (shared 16KB DM L1)",
		"pair", "cross-conflicts/1k", "combined miss %")
	for _, p := range pairs {
		t.AddRow(p.A+"+"+p.B,
			fmt.Sprintf("%.2f", 1000*p.CrossConflictRate),
			fmt.Sprintf("%.2f", 100*p.CombinedMissRate))
	}
	fmt.Println(t)

	// Step 2: validate the ranking with the SMT timing model — run the
	// best and worst pairs on the 2-thread core and compare combined
	// throughput against the sum of each job's solo rate share.
	best, worst := pairs[0], pairs[len(pairs)-1]
	fmt.Printf("scheduler picks %s+%s (least interference), avoids %s+%s\n\n",
		best.A, best.B, worst.A, worst.B)

	for _, p := range []mt.PairScore{best, worst} {
		ipc, eff := runSMT(p.A, p.B)
		fmt.Printf("%-16s combined IPC %.3f  (%.0f%% of the jobs' solo throughput)\n",
			p.A+"+"+p.B, ipc, 100*eff)
	}
	fmt.Println("\nThe pair the conflict matrix flags as hostile loses measurably more of")
	fmt.Println("its solo throughput to the shared cache — the feedback a conflict-aware")
	fmt.Println("SMT scheduler needs, from a table that costs ~1.4KB of hardware.")
}

// runSMT co-runs two benchmarks on the 2-thread core and returns combined
// IPC plus efficiency vs the sum of halved solo IPCs.
func runSMT(a, b string) (float64, float64) {
	const perThread = 100_000
	ba, _ := workload.ByName(a)
	bb, _ := workload.ByName(b)

	sys := assist.MustNewBaseline(sim.L1Config(), 0)
	h := hier.MustNew(hier.DefaultConfig(), sys)
	core := cpu.MustNewSMT(cpu.DefaultConfig(), h, 2)
	ms := core.RunThreads([]trace.Stream{ba.Stream(1), bb.Stream(2)}, perThread)
	combined := (float64(ms[0].Instructions) + float64(ms[1].Instructions)) / float64(ms[0].Cycles)

	solo := 0.0
	for i, bench := range []*workload.Benchmark{ba, bb} {
		r := sim.Run(bench, assist.MustNewBaseline(sim.L1Config(), 0),
			sim.Options{Instructions: perThread, Seed: uint64(i + 1)})
		solo += r.IPC()
	}
	return combined, combined / solo
}
