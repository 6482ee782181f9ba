// Conflict profiling: use the Miss Classification Table as a measurement
// tool rather than a hardware optimization. The program replays a workload
// through an instrumented cache, builds a per-set conflict heat map, and
// reports which data regions fight over which sets — the software-visible
// diagnosis that page-remapping systems (the paper's Section 5.6 "runtime
// conflict avoidance") would act on.
//
//	go run ./examples/conflictprofile [-bench gcc]
package main

import (
	"flag"
	"fmt"
	"sort"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	benchName := flag.String("bench", "gcc", "benchmark to profile")
	accesses := flag.Uint64("accesses", 400_000, "memory accesses to replay")
	flag.Parse()

	bench, ok := workload.ByName(*benchName)
	if !ok {
		fmt.Println("unknown benchmark; see `go run ./cmd/mctsim -list`")
		return
	}

	cfg := sim.L1Config()
	l1 := cache.MustNew(cfg)
	cc := core.MustAttach(l1, 0)
	geom := l1.Geometry()

	conflictsPerSet := make([]uint64, cfg.Sets())
	missesPerSet := make([]uint64, cfg.Sets())
	// Conflicting page pairs: for every conflict miss, remember (page of
	// missing line, page of evicted line) — these are remap candidates.
	type pagePair struct{ a, b uint64 }
	pairs := map[pagePair]uint64{}

	s := bench.MemStream(workload.DefaultSeed)
	var in trace.Instr
	for n := uint64(0); n < *accesses && s.Next(&in); n++ {
		hit, ev := cc.Access(in.Addr, in.Op == trace.Store)
		if hit {
			continue
		}
		set := geom.Set(in.Addr)
		missesPerSet[set]++
		if ev.Class == core.Conflict {
			conflictsPerSet[set]++
			if ev.Eviction.Occurred {
				pg := uint64(in.Addr) >> 13 // 8KB pages
				evpg := (uint64(ev.Eviction.Line) << 6) >> 13
				if pg != evpg {
					p := pagePair{pg, evpg}
					if evpg < pg {
						p = pagePair{evpg, pg}
					}
					pairs[p]++
				}
			}
		}
	}

	st := cc.Table().Stats()
	fmt.Printf("%s: %d misses, %.1f%% classified conflict\n\n",
		bench.Name, st.Misses(), 100*st.ConflictFraction())

	// Hottest conflict sets.
	type setHeat struct {
		set       int
		conflicts uint64
	}
	heat := make([]setHeat, 0, cfg.Sets())
	for i, c := range conflictsPerSet {
		if c > 0 {
			heat = append(heat, setHeat{i, c})
		}
	}
	sort.Slice(heat, func(i, j int) bool { return heat[i].conflicts > heat[j].conflicts })
	fmt.Println("hottest conflict sets (set: conflict misses / total misses):")
	for i := 0; i < len(heat) && i < 8; i++ {
		h := heat[i]
		fmt.Printf("  set %3d: %6d / %6d\n", h.set, h.conflicts, missesPerSet[h.set])
	}

	// Top conflicting page pairs.
	type pairCount struct {
		p pagePair
		n uint64
	}
	pcs := make([]pairCount, 0, len(pairs))
	for p, n := range pairs {
		pcs = append(pcs, pairCount{p, n})
	}
	sort.Slice(pcs, func(i, j int) bool { return pcs[i].n > pcs[j].n })
	fmt.Println("\ntop conflicting 8KB page pairs (remap candidates):")
	for i := 0; i < len(pcs) && i < 8; i++ {
		fmt.Printf("  pages %#x <-> %#x: %d conflict evictions\n",
			pcs[i].p.a<<13, pcs[i].p.b<<13, pcs[i].n)
	}
	fmt.Println("\nA cache-miss-lookaside-style OS would recolor one page of each hot")
	fmt.Println("pair; counting only conflict misses (not capacity) avoids pointless")
	fmt.Println("remaps — the paper's Section 5.6 proposal.")
}
