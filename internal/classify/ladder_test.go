package classify_test

import (
	"fmt"
	"testing"

	"repro/internal/cache"
	"repro/internal/classify"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/trace"
	"repro/internal/workload"
)

// ladderConfigs returns a ladder of power-of-two cache sizes, in bytes,
// at one geometry (64-byte lines).
func ladderConfigs(sizes []int, assoc int, scheme cache.IndexScheme) []cache.Config {
	cfgs := make([]cache.Config, len(sizes))
	for i, size := range sizes {
		cfgs[i] = cache.Config{Name: "L1D", Size: size, LineSize: 64, Assoc: assoc, Indexing: scheme, IndexSeed: 7}
	}
	return cfgs
}

// doubling returns n sizes doubling from first.
func doubling(first, n int) []int {
	sizes := make([]int, n)
	for i := range sizes {
		sizes[i] = first << i
	}
	return sizes
}

// perSizeReference is the classification a ladder rung must reproduce,
// built from independent parts: its own real cache and MCT, its own
// fully-associative LRU cache of equal capacity, and a map of touched
// lines shared by the rungs (the first-touch test is size-independent).
// scalar is a one-size Run at the rung's configuration, fed the same
// stream one access at a time through the oracle's scalar Observe.
type perSizeReference struct {
	cc       *core.ClassifyingCache
	fa       *cache.FullyAssociative
	faMisses uint64
	counts   [3]uint64 // compulsory, capacity, conflict
	acc      classify.Accuracy
	scalar   *classify.Run
}

// TestLadderMatchesPerSizeReferences is the differential gate for the
// shared multi-capacity stack: suite streams played through a Ladder in
// irregular batches must give, at every rung and every access, the same
// real-cache hit, MCT class and oracle verdict as independent per-size
// references, and the same final counts and accuracy. Each rung's
// FAMisses, and that of a scalar one-size Run, must equal its
// fully-associative reference's miss count. Ladders of 1, 3, 7
// and 16 rungs run over direct-mapped, 2-way and skewed 2-way geometries;
// the 16-rung ladder spans 2 to 65536 lines, its top far above the
// working set of any stream here.
func TestLadderMatchesPerSizeReferences(t *testing.T) {
	const accesses = 12_000
	ladders := map[string][]int{
		"1":  {16 << 10},
		"3":  {8 << 10, 32 << 10, 128 << 10},
		"7":  doubling(4<<10, 7),
		"16": doubling(128, 16),
	}
	geometries := []struct {
		name   string
		assoc  int
		scheme cache.IndexScheme
	}{
		{"dm", 1, cache.IndexModulo},
		{"2way", 2, cache.IndexModulo},
		{"skewed", 2, cache.IndexSkewed},
	}
	suite := workload.Suite()
	for _, g := range geometries {
		for _, rungs := range []string{"1", "3", "7", "16"} {
			cfgs := ladderConfigs(ladders[rungs], g.assoc, g.scheme)
			t.Run(fmt.Sprintf("%s/rungs=%s", g.name, rungs), func(t *testing.T) {
				var total [3]uint64
				for bi, b := range suite {
					addrs, stores := memAccesses(b, uint64(bi+1), accesses)
					counts, err := checkLadder(cfgs, addrs, stores)
					if err != nil {
						t.Fatalf("%s: %v", b.Name, err)
					}
					for i, c := range counts {
						total[i] += c
					}
				}
				// Every verdict must occur, or the comparison proves little.
				for kind, c := range total {
					if c == 0 {
						t.Errorf("no %v misses across the suite", classify.Kind(kind))
					}
				}
			})
		}
	}
}

// memAccesses renders the first n memory accesses of a benchmark's
// stream.
func memAccesses(b *workload.Benchmark, seed uint64, n int) ([]mem.Addr, []bool) {
	addrs := make([]mem.Addr, 0, n)
	stores := make([]bool, 0, n)
	s := b.MemStream(seed)
	var in trace.Instr
	for len(addrs) < n && s.Next(&in) {
		addrs = append(addrs, in.Addr)
		stores = append(stores, in.Op == trace.Store)
	}
	return addrs, stores
}

// checkLadder plays one stream through a ladder and the per-size
// references, reporting the first disagreement, or else the reference
// verdict counts summed over the rungs.
func checkLadder(cfgs []cache.Config, addrs []mem.Addr, stores []bool) (counts [3]uint64, err error) {
	ladder, err := classify.NewLadder(cfgs, 0)
	if err != nil {
		return counts, err
	}
	refs := make([]*perSizeReference, len(cfgs))
	for k, cfg := range cfgs {
		cc, err := core.Attach(cache.MustNew(cfg), 0)
		if err != nil {
			return counts, err
		}
		scalar, err := classify.NewRun(cfg, 0)
		if err != nil {
			return counts, err
		}
		refs[k] = &perSizeReference{cc: cc, fa: cache.NewFullyAssociative(cfg.Size / cfg.LineSize), scalar: scalar}
	}
	touched := make(map[mem.LineAddr]bool)
	lineShift := uint(6) // 64-byte lines

	// Irregular batch sizes exercise batch boundaries and scratch reuse.
	sizes := []int{1, 7, 256, 3, 1024, 64}
	for start, bi := 0, 0; start < len(addrs); bi++ {
		end := min(start+sizes[bi%len(sizes)], len(addrs))
		ladder.AccessBatch(addrs[start:end], stores[start:end])
		for i := start; i < end; i++ {
			line := mem.LineAddr(uint64(addrs[i]) >> lineShift)
			seen := touched[line]
			touched[line] = true
			for k, ref := range refs {
				hit, ev := ref.cc.Access(addrs[i], stores[i])
				faHit := ref.fa.Reference(line)
				if !faHit {
					ref.faMisses++
				}
				ref.scalar.Access(addrs[i], stores[i])
				want := classify.Hit
				if !hit {
					switch {
					case !seen:
						want = classify.Compulsory
					case faHit:
						want = classify.Conflict
					default:
						want = classify.Capacity
					}
					ref.counts[want]++
					ref.acc.Record(want, ev.Class)
				}
				rung := ladder.Rungs[k]
				j := i - start
				if rung.Hits[j] != hit || rung.Kinds[j] != want || (!hit && rung.Classes[j] != ev.Class) {
					return counts, fmt.Errorf("access %d (line %#x) at %dB: ladder hit=%v kind=%v class=%v, reference hit=%v kind=%v class=%v",
						i, line, cfgs[k].Size, rung.Hits[j], rung.Kinds[j], rung.Classes[j], hit, want, ev.Class)
				}
			}
		}
		start = end
	}
	for k, ref := range refs {
		rung := ladder.Rungs[k]
		compulsory, capacity, conflict := rung.Oracle.Counts()
		if got := [3]uint64{compulsory, capacity, conflict}; got != ref.counts {
			return counts, fmt.Errorf("at %dB: ladder counts %v, reference %v", cfgs[k].Size, got, ref.counts)
		}
		if rung.Acc != ref.acc {
			return counts, fmt.Errorf("at %dB: ladder accuracy %+v, reference %+v", cfgs[k].Size, rung.Acc, ref.acc)
		}
		if got, scalar := rung.Oracle.FAMisses(), ref.scalar.Oracle.FAMisses(); got != ref.faMisses || scalar != ref.faMisses {
			return counts, fmt.Errorf("at %dB: fully-associative misses: ladder %d, scalar run %d, reference %d", cfgs[k].Size, got, scalar, ref.faMisses)
		}
		for i, c := range ref.counts {
			counts[i] += c
		}
	}
	return counts, nil
}

func TestNewLadderRejectsBadRungs(t *testing.T) {
	dm := func(size, line int) cache.Config {
		return cache.Config{Name: "L1D", Size: size, LineSize: line, Assoc: 1}
	}
	for name, cfgs := range map[string][]cache.Config{
		"empty":      nil,
		"descending": {dm(32<<10, 64), dm(16<<10, 64)},
		"repeated":   {dm(16<<10, 64), dm(16<<10, 64)},
		"line sizes": {dm(16<<10, 64), dm(32<<10, 32)},
		"invalid":    {dm(16<<10, 64), dm(48<<10, 64)},
	} {
		if _, err := classify.NewLadder(cfgs, 0); err == nil {
			t.Errorf("%s: NewLadder accepted %+v", name, cfgs)
		}
	}
	if _, err := classify.NewLadder([]cache.Config{dm(16<<10, 64)}, -1); err == nil {
		t.Error("NewLadder accepted negative tag bits")
	}
}
