// Quickstart: classify the misses of a small access pattern with a Miss
// Classification Table and check the verdicts against the classic
// (compulsory/capacity/conflict) oracle.
//
//	go run ./examples/quickstart
//
// The program builds the paper's 16KB direct-mapped L1, attaches an MCT,
// and replays two canonical patterns: a conflict ping-pong (two addresses
// 16KB apart fighting over one set) and a capacity sweep (a region twice
// the cache size). It prints the classification of every miss in the first
// few iterations, then aggregate accuracy.
package main

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/classify"
	"repro/internal/core"
	"repro/internal/mem"
)

func main() {
	cfg := cache.Config{Name: "L1D", Size: 16 * 1024, LineSize: 64, Assoc: 1}
	cc := core.MustAttach(cache.MustNew(cfg), 0) // full tags
	oracle := classify.MustNewOracle(cfg)
	var acc classify.Accuracy

	fmt.Println("-- conflict ping-pong: A and B are 16KB apart (same set, different tag)")
	a, b := mem.Addr(0x10000), mem.Addr(0x14000)
	for i := 0; i < 3; i++ {
		for _, addr := range []mem.Addr{a, b} {
			hit, ev := cc.Access(addr, false)
			kind := oracle.Observe(addr, hit)
			if !hit {
				acc.Record(kind, ev.Class)
				fmt.Printf("  iter %d: access %#x  MISS  mct=%-8s oracle=%-10s\n",
					i, uint64(addr), ev.Class, kind)
			} else {
				fmt.Printf("  iter %d: access %#x  hit\n", i, uint64(addr))
			}
		}
	}

	fmt.Println("-- capacity sweep: 32KB region cycled through a 16KB cache")
	for pass := 0; pass < 2; pass++ {
		misses := map[core.Class]int{}
		for i := 0; i < 512; i++ {
			addr := mem.Addr(0x100000 + i*64)
			hit, ev := cc.Access(addr, false)
			kind := oracle.Observe(addr, hit)
			if !hit {
				acc.Record(kind, ev.Class)
				misses[ev.Class]++
			}
		}
		fmt.Printf("  pass %d: %d misses classified conflict, %d capacity\n",
			pass, misses[core.Conflict], misses[core.Capacity])
	}
	fmt.Println("   (a two-lines-per-set sweep is the MCT's known blind spot:")
	fmt.Println("    the oracle calls these capacity, the MCT sees a ping-pong)")

	fmt.Printf("\noverall: %d misses | conflict accuracy %.1f%% | capacity accuracy %.1f%% | agreement %.1f%%\n",
		acc.Misses(), 100*acc.ConflictAccuracy(), 100*acc.CapacityAccuracy(), 100*acc.OverallAccuracy())

	mct := cc.Table()
	fmt.Printf("MCT cost: %d sets x (tag+valid) = %d bits total at 10-bit tags\n",
		mct.Config().Sets, core.Config{Sets: mct.Config().Sets, TagBits: 10}.StorageBits(0))
}
