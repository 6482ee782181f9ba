// Victim-cache tuning: sweep the paper's four victim-cache policies and
// buffer sizes on a conflict-heavy workload (tomcatv's synthetic stand-in)
// and print the performance / traffic trade-off each policy strikes.
//
//	go run ./examples/victimtuning
//
// This is the Section-5.1 experiment as a library user would run it: pick
// a workload, build victim caches with victim.MustNew, and compare
// through sim.Run.
package main

import (
	"fmt"

	"repro/internal/assist"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/victim"
	"repro/internal/workload"
)

func main() {
	bench, _ := workload.ByName("tomcatv")
	opt := sim.Options{Instructions: 300_000}
	cfg := sim.L1Config()

	base := sim.Run(bench, assist.MustNewBaseline(cfg, 0), opt)
	fmt.Printf("workload %s: baseline IPC %.3f, L1 miss rate %.1f%%\n\n",
		bench.Name, base.IPC(), 100*base.Sys.MissRate())

	policies := []victim.Policy{
		victim.Traditional,
		victim.FilterSwapsPolicy,
		victim.FilterFillsPolicy,
		victim.FilterBothPolicy,
	}

	t := stats.NewTable("victim-cache policies on "+bench.Name,
		"policy", "entries", "speedup", "total HR %", "swaps %", "fills %")
	for _, entries := range []int{4, 8, 16} {
		for _, pol := range policies {
			r := sim.Run(bench, victim.MustNew(cfg, 0, entries, pol), opt)
			t.AddRow(pol.Name(), fmt.Sprint(entries),
				fmt.Sprintf("%.3f", r.IPC()/base.IPC()),
				fmt.Sprintf("%.1f", 100*r.Sys.TotalHitRate()),
				fmt.Sprintf("%.2f", 100*r.Sys.SwapRate()),
				fmt.Sprintf("%.2f", 100*r.Sys.FillRate()))
		}
	}
	fmt.Println(t)

	// The filters' sensitivity to the conflict-identification bias: run
	// filter-both under each of the paper's four filters.
	t2 := stats.NewTable("filter choice for the combined policy (8 entries)",
		"filter", "speedup", "fills %")
	for _, f := range core.Filters {
		pol := victim.Policy{FilterSwaps: true, FilterFills: true, Filter: f}
		r := sim.Run(bench, victim.MustNew(cfg, 0, 8, pol), opt)
		t2.AddRow(f.String(),
			fmt.Sprintf("%.3f", r.IPC()/base.IPC()),
			fmt.Sprintf("%.2f", 100*r.Sys.FillRate()))
	}
	fmt.Println(t2)
	fmt.Println("or-conflict (the paper's choice) admits the most evictions into the buffer;")
	fmt.Println("and-conflict is the stingiest — compare the fill rates above.")
}
