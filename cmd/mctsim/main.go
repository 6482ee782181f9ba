// Command mctsim runs one benchmark on one cache-assist configuration and
// prints the full metric set: IPC, hit-rate components, classified miss
// mix, traffic rates, and MCT-vs-oracle classification accuracy.
//
// Usage:
//
//	mctsim -bench tomcatv -system vc-both [-instructions 1000000]
//	       [-entries 8] [-tagbits 0] [-filter or-conflict] [-seed N]
//	       [-l1 16384] [-assoc 1] [-slowbus]
//
// Systems: base, vc, vc-noswap, vc-nofill, vc-both, pf, pf-filter, rpt,
// excl-mat, excl-conflict, excl-capacity, excl-conflict-hist,
// excl-capacity-hist, pseudo, pseudo-mct, amb-vict, amb-pref, amb-excl,
// amb-victpref, amb-prefexcl, amb-victexcl, amb-all.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/amb"
	"repro/internal/assist"
	"repro/internal/cache"
	"repro/internal/classify"
	"repro/internal/core"
	"repro/internal/exclude"
	"repro/internal/hier"
	"repro/internal/prefetch"
	"repro/internal/pseudo"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/victim"
	"repro/internal/workload"
)

func main() {
	var (
		benchName = flag.String("bench", "tomcatv", "benchmark name (see -list)")
		sysName   = flag.String("system", "base", "cache-assist system")
		instrs    = flag.Uint64("instructions", 1_000_000, "instructions to simulate")
		entries   = flag.Int("entries", assist.DefaultEntries, "assist buffer entries")
		tagBits   = flag.Int("tagbits", 0, "MCT tag bits per entry (0 = full)")
		filterStr = flag.String("filter", "or-conflict", "conflict filter for filtered policies")
		seed      = flag.Uint64("seed", workload.DefaultSeed, "workload seed")
		l1Size    = flag.Int("l1", 16*1024, "L1 size in bytes")
		l1Assoc   = flag.Int("assoc", 1, "L1 associativity")
		slowBus   = flag.Bool("slowbus", false, "use the slow L1-L2 bus (Figure 4 setting)")
		list      = flag.Bool("list", false, "list benchmarks and exit")
		accuracy  = flag.Bool("accuracy", false, "also measure MCT accuracy against the classic oracle")
		traceFile = flag.String("trace", "", "binary trace file to classify (batch kernel) instead of simulating a benchmark")
	)
	flag.Parse()

	if *list {
		for _, b := range workload.Suite() {
			fmt.Printf("%-10s %s\n", b.Name, b.Description)
		}
		return
	}

	if *traceFile != "" {
		if err := classifyTrace(*traceFile, *l1Size, *l1Assoc, *tagBits); err != nil {
			fmt.Fprintln(os.Stderr, "mctsim:", err)
			os.Exit(1)
		}
		return
	}

	b, ok := workload.ByName(*benchName)
	if !ok {
		fmt.Fprintf(os.Stderr, "mctsim: unknown benchmark %q (try -list)\n", *benchName)
		os.Exit(2)
	}
	filter, err := core.ParseFilter(*filterStr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mctsim:", err)
		os.Exit(2)
	}
	cfg := cache.Config{Name: "L1D", Size: *l1Size, LineSize: 64, Assoc: *l1Assoc}
	if err := cfg.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "mctsim:", err)
		os.Exit(2)
	}

	sys, err := buildSystem(*sysName, cfg, *tagBits, *entries, filter)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mctsim:", err)
		os.Exit(2)
	}

	opt := sim.Options{Instructions: *instrs, Seed: *seed}
	if *slowBus {
		opt.Hier = hier.SlowBusConfig()
	}
	r := sim.Run(b, sys, opt)

	fmt.Printf("benchmark    %s\n", r.Bench)
	fmt.Printf("system       %s (buffer %d entries, MCT tagbits %d, filter %s)\n", r.System, *entries, *tagBits, filter)
	fmt.Printf("instructions %d  cycles %d  IPC %.3f\n", r.CPU.Instructions, r.CPU.Cycles, r.IPC())
	fmt.Printf("branches     %d  mispredict %.2f%%\n", r.CPU.Branches, 100*r.CPU.MispredictRate())
	s := r.Sys
	fmt.Printf("accesses     %d\n", s.Accesses)
	fmt.Printf("hit rates    L1 %.2f%%  buffer %.2f%%  total %.2f%%  (miss %.2f%%)\n",
		100*s.L1HitRate(), 100*s.BufferHitRate(), 100*s.TotalHitRate(), 100*s.MissRate())
	fmt.Printf("miss mix     conflict %d (%.1f%%)  capacity %d\n",
		s.ConflictMisses, 100*float64(s.ConflictMisses)/nonzero(float64(s.Misses)), s.CapacityMisses)
	fmt.Printf("traffic      swaps %.2f%%  fills %.2f%%  bypasses %d\n",
		100*s.SwapRate(), 100*s.FillRate(), s.Bypasses)
	if s.PrefetchesIssued > 0 {
		fmt.Printf("prefetch     issued %d  useful %d  wasted %d  accuracy %.1f%%\n",
			s.PrefetchesIssued, s.PrefetchesUseful, s.PrefetchesWasted, 100*s.PrefetchAccuracy())
	}
	h := r.Hier
	fmt.Printf("hierarchy    L2 acc %d (hit %.1f%%)  writebacks %d  MSHR stalls %d\n",
		h.L2Accesses, 100*float64(h.L2Hits)/nonzero(float64(h.L2Accesses)), h.Writebacks, h.MSHRStalls)
	fmt.Printf("contention   bank-conflict cycles %d  bus-wait cycles %d  prefetches dropped %d\n",
		h.BankConflictCycles, h.BusWaitCycles, h.PrefetchesDropped)

	if *accuracy {
		run, err := classify.NewRun(cfg, *tagBits)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mctsim:", err)
			os.Exit(1)
		}
		src := trace.StreamAccesses(trace.NewLimit(b.MemStream(*seed), *instrs))
		sim.NewBatchClassifier(run, 0).ClassifyAll(src)
		a := run.Acc
		fmt.Printf("mct accuracy conflict %.1f%%  capacity %.1f%%  overall %.1f%%  (oracle conflict share %.1f%%)\n",
			100*a.ConflictAccuracy(), 100*a.CapacityAccuracy(), 100*a.OverallAccuracy(), 100*a.ConflictShare())
	}
}

// classifyTrace replays a binary trace file (either wire version) through
// the classifying cache and the oracle via the mmap-backed batch kernel
// and prints the classification summary.
func classifyTrace(path string, l1Size, l1Assoc, tagBits int) error {
	cfg := cache.Config{Name: "L1D", Size: l1Size, LineSize: 64, Assoc: l1Assoc}
	if err := cfg.Validate(); err != nil {
		return err
	}
	m, err := trace.MapFile(path, trace.Limits{})
	if err != nil {
		return err
	}
	defer m.Close()
	run, err := classify.NewRun(cfg, tagBits)
	if err != nil {
		return err
	}
	accesses := sim.ClassifyBatched(run, m, 0)
	a := run.Acc
	compulsory, capacity, conflict := run.Oracle.Counts()
	fmt.Printf("trace        %s (%d records)\n", path, m.Len())
	fmt.Printf("cache        %d KB %d-way, MCT tagbits %d\n", cfg.Size/1024, cfg.Assoc, tagBits)
	fmt.Printf("accesses     %d  misses %d\n", accesses, a.Misses())
	fmt.Printf("oracle mix   compulsory %d  capacity %d  conflict %d\n", compulsory, capacity, conflict)
	fmt.Printf("mct accuracy conflict %.1f%%  capacity %.1f%%  overall %.1f%%\n",
		100*a.ConflictAccuracy(), 100*a.CapacityAccuracy(), 100*a.OverallAccuracy())
	return nil
}

func nonzero(f float64) float64 {
	if f == 0 {
		return 1
	}
	return f
}

func buildSystem(name string, cfg cache.Config, tagBits, entries int, filter core.Filter) (assist.System, error) {
	switch name {
	case "base":
		return assist.NewBaseline(cfg, tagBits)
	case "vc":
		return victim.New(cfg, tagBits, entries, victim.Policy{Filter: filter})
	case "vc-noswap":
		return victim.New(cfg, tagBits, entries, victim.Policy{FilterSwaps: true, Filter: filter})
	case "vc-nofill":
		return victim.New(cfg, tagBits, entries, victim.Policy{FilterFills: true, Filter: filter})
	case "vc-both":
		return victim.New(cfg, tagBits, entries, victim.Policy{FilterSwaps: true, FilterFills: true, Filter: filter})
	case "pf":
		return prefetch.New(cfg, tagBits, entries, prefetch.Policy{PrefetchOnBufferHit: true})
	case "pf-filter":
		return prefetch.New(cfg, tagBits, entries, prefetch.Policy{Filter: filter, PrefetchOnBufferHit: true})
	case "rpt":
		return prefetch.NewRPT(cfg, tagBits, entries, 512)
	case "excl-mat":
		return exclude.New(cfg, tagBits, entries, exclude.ModeMAT)
	case "excl-conflict":
		return exclude.New(cfg, tagBits, entries, exclude.ModeConflict)
	case "excl-capacity":
		return exclude.New(cfg, tagBits, entries, exclude.ModeCapacity)
	case "excl-conflict-hist":
		return exclude.New(cfg, tagBits, entries, exclude.ModeConflictHistory)
	case "excl-capacity-hist":
		return exclude.New(cfg, tagBits, entries, exclude.ModeCapacityHistory)
	case "pseudo":
		return pseudo.New(cfg, tagBits, false)
	case "pseudo-mct":
		return pseudo.New(cfg, tagBits, true)
	case "amb-vict":
		return amb.New(cfg, tagBits, entries, amb.Vict)
	case "amb-pref":
		return amb.New(cfg, tagBits, entries, amb.Pref)
	case "amb-excl":
		return amb.New(cfg, tagBits, entries, amb.Excl)
	case "amb-victpref":
		return amb.New(cfg, tagBits, entries, amb.VictPref)
	case "amb-prefexcl":
		return amb.New(cfg, tagBits, entries, amb.PrefExcl)
	case "amb-victexcl":
		return amb.New(cfg, tagBits, entries, amb.VictExcl)
	case "amb-all":
		return amb.New(cfg, tagBits, entries, amb.VicPreExc)
	default:
		return nil, fmt.Errorf("unknown system %q", name)
	}
}
