package classify_test

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/cache"
	"repro/internal/classify"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/trace"
	"repro/internal/workload"
)

// l1d is a 64-byte-line cache configuration.
func l1d(size, assoc int, scheme cache.IndexScheme) cache.Config {
	return cache.Config{Name: "L1D", Size: size, LineSize: 64, Assoc: assoc, Indexing: scheme, IndexSeed: 7}
}

// ladderRungs returns a full-tag ladder of power-of-two cache sizes, in
// bytes, at one geometry.
func ladderRungs(sizes []int, assoc int, scheme cache.IndexScheme) []classify.Rung {
	rungs := make([]classify.Rung, len(sizes))
	for i, size := range sizes {
		rungs[i] = classify.Rung{Cache: l1d(size, assoc, scheme)}
	}
	return rungs
}

// mixedRungs repeats capacities and varies associativity, index scheme,
// MCT tag width and depth from rung to rung, as the accuracy experiments'
// ladders do: repeated capacities share one oracle region, rungs of one
// cache configuration share one cache and eviction history, and each rung
// keeps its own verdicts.
var mixedRungs = []classify.Rung{
	{Cache: l1d(8<<10, 1, cache.IndexModulo), Depth: 3},
	{Cache: l1d(8<<10, 1, cache.IndexModulo)},
	{Cache: l1d(8<<10, 2, cache.IndexSkewed), TagBits: 4},
	{Cache: l1d(8<<10, 4, cache.IndexRandom), TagBits: 1},
	{Cache: l1d(8<<10, 2, cache.IndexSkewed), Depth: 2},
	{Cache: l1d(16<<10, 1, cache.IndexModulo), TagBits: 8},
	{Cache: l1d(16<<10, 1, cache.IndexModulo), Depth: 16},
	{Cache: l1d(16<<10, 1, cache.IndexModulo), TagBits: 2},
	{Cache: l1d(16<<10, 2, cache.IndexModulo), Depth: 4},
	{Cache: l1d(16<<10, 2, cache.IndexModulo)},
	{Cache: l1d(16<<10, 1, cache.IndexModulo), Depth: 2},
	{Cache: l1d(64<<10, 2, cache.IndexSkewed), TagBits: 12},
	{Cache: l1d(64<<10, 1, cache.IndexRandom), Depth: 1},
	{Cache: l1d(64<<10, 1, cache.IndexRandom), Depth: 2},
}

// fig2Widths is Figure 2's ladder: one 16KB direct-mapped cache at every
// stored tag width.
func fig2Widths() []classify.Rung {
	var rungs []classify.Rung
	for _, bits := range []int{1, 2, 3, 4, 5, 6, 8, 10, 12, 14, 16, 0} {
		rungs = append(rungs, classify.Rung{Cache: l1d(16<<10, 1, cache.IndexModulo), TagBits: bits})
	}
	return rungs
}

// doubling returns n sizes doubling from first.
func doubling(first, n int) []int {
	sizes := make([]int, n)
	for i := range sizes {
		sizes[i] = first << i
	}
	return sizes
}

// stackDistances returns each access's LRU stack distance: how many
// distinct other lines were referenced since the line's last reference,
// or -1 on its first. By the inclusion property the access hits a
// fully-associative LRU cache of C lines iff 0 <= d < C. A move-to-front
// slice computes it with no code shared with the ladder's cache.LRUStack.
func stackDistances(addrs []mem.Addr, lineShift uint) []int {
	var stack []mem.LineAddr // most recent first
	dists := make([]int, len(addrs))
	for i, a := range addrs {
		line := mem.LineAddr(uint64(a) >> lineShift)
		d := slices.Index(stack, line)
		dists[i] = d
		if d < 0 {
			stack = append(stack, line)
			d = len(stack) - 1
		}
		copy(stack[1:d+1], stack[:d])
		stack[0] = line
	}
	return dists
}

// perSizeReference is the classification a ladder rung must reproduce,
// built from independent parts: its own real cache and MCT (mctReference),
// a fully-associative LRU cache of equal capacity (lines, answered from
// the stream's stack distances), and a map of touched lines shared by the
// rungs (the first-touch test is size-independent). oracle is a one-size
// Oracle at the rung's configuration, fed the same stream one access at a
// time through its scalar Observe.
type perSizeReference struct {
	mct      *mctReference
	lines    int
	faMisses uint64
	counts   [3]uint64 // compulsory, capacity, conflict
	acc      classify.Accuracy
	oracle   *classify.Oracle
}

// mctReference is a rung's own real cache and MCT: core.Attach's
// one-entry table at the rung's tag width, or, for a deeper rung, a
// core.DeepMCT at its depth and tag width driven the way core.Attach
// drives the one-entry table.
type mctReference struct {
	cc   *core.ClassifyingCache
	c    *cache.Cache
	deep *core.DeepMCT
}

func newMCTReference(rung classify.Rung) (*mctReference, error) {
	c, err := cache.New(rung.Cache)
	if err != nil {
		return nil, err
	}
	if rung.Depth <= 1 {
		cc, err := core.Attach(c, rung.TagBits)
		return &mctReference{cc: cc}, err
	}
	deep, err := core.NewDeep(core.Config{Sets: rung.Cache.Sets(), TagBits: rung.TagBits}, rung.Depth)
	return &mctReference{c: c, deep: deep}, err
}

// access plays one access, returning whether it hit and, for a miss, the
// MCT's verdict.
func (m *mctReference) access(addr mem.Addr, store bool) (bool, core.Class) {
	if m.cc != nil {
		hit, ev := m.cc.Access(addr, store)
		return hit, ev.Class
	}
	typ := mem.Load
	if store {
		typ = mem.Store
	}
	if m.c.Access(addr, typ) {
		return true, core.Capacity
	}
	geom := m.c.Geometry()
	class := core.Capacity
	if m.deep.Classify(geom.Set(addr), geom.Tag(addr)) != 0 {
		class = core.Conflict
	}
	if ev := m.c.Fill(addr, store, class == core.Conflict); ev.Occurred {
		m.deep.RecordEviction(geom.SetOfLine(ev.Line), geom.TagOfLine(ev.Line))
	}
	return false, class
}

// TestLadderMatchesPerSizeReferences is the differential gate for the
// shared multi-capacity stack: suite streams played through a Ladder in
// irregular batches must give, at every rung and every access, the same
// real-cache hit, MCT class and oracle verdict as independent per-size
// references, and the same final counts and accuracy. Each rung's
// FAMisses, and that of a scalar one-size Oracle, must equal its
// fully-associative reference's miss count. Ladders of 1, 3, 7
// and 16 rungs run over direct-mapped, 2-way and skewed 2-way geometries;
// the 16-rung ladder spans 2 to 65536 lines, its top far above the
// working set of any stream here. The mixed ladder (mixedRungs) repeats
// capacities and changes geometry, tag width and depth from rung to
// rung; the fig2 ladder reads one cache at all of Figure 2's widths.
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
	type stream struct {
		addrs  []mem.Addr
		stores []bool
		dists  []int
	}
	suite := workload.Suite()
	streams := make([]stream, len(suite))
	for bi, b := range suite {
		addrs, stores := memAccesses(b, uint64(bi+1), accesses)
		streams[bi] = stream{addrs, stores, stackDistances(addrs, 6)}
	}
	cases := map[string][]classify.Rung{"mixed": mixedRungs, "fig2": fig2Widths()}
	for _, g := range geometries {
		for name, sizes := range ladders {
			cases[fmt.Sprintf("%s/rungs=%s", g.name, name)] = ladderRungs(sizes, g.assoc, g.scheme)
		}
	}
	for name, rungs := range cases {
		t.Run(name, func(t *testing.T) {
			var total [3]uint64
			for bi, b := range suite {
				st := streams[bi]
				counts, err := checkLadder(rungs, st.addrs, st.stores, st.dists)
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

// checkLadder plays one stream, with its stack distances, through a ladder
// and the per-size references, reporting the first disagreement, or else
// the reference verdict counts summed over the rungs.
func checkLadder(rungs []classify.Rung, addrs []mem.Addr, stores []bool, dists []int) (counts [3]uint64, err error) {
	ladder, err := classify.NewLadder(rungs)
	if err != nil {
		return counts, err
	}
	refs := make([]*perSizeReference, len(rungs))
	for k, rung := range rungs {
		cfg := rung.Cache
		mct, err := newMCTReference(rung)
		if err != nil {
			return counts, err
		}
		oracle, err := classify.NewOracle(cfg)
		if err != nil {
			return counts, err
		}
		refs[k] = &perSizeReference{mct: mct, lines: cfg.Size / cfg.LineSize, oracle: oracle}
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
				hit, class := ref.mct.access(addrs[i], stores[i])
				faHit := dists[i] >= 0 && dists[i] < ref.lines
				if !faHit {
					ref.faMisses++
				}
				ref.oracle.Observe(addrs[i], hit)
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
					ref.acc.Record(want, class)
				}
				rung := ladder.Rungs[k]
				j := i - start
				if rung.Hits[j] != hit || rung.Kinds[j] != want || (!hit && rung.Classes[j] != class) {
					return counts, fmt.Errorf("access %d (line %#x) at rung %d: ladder hit=%v kind=%v class=%v, reference hit=%v kind=%v class=%v",
						i, line, k, rung.Hits[j], rung.Kinds[j], rung.Classes[j], hit, want, class)
				}
			}
		}
		start = end
	}
	for k, ref := range refs {
		rung := ladder.Rungs[k]
		compulsory, capacity, conflict := rung.Oracle.Counts()
		if got := [3]uint64{compulsory, capacity, conflict}; got != ref.counts {
			return counts, fmt.Errorf("at rung %d: ladder counts %v, reference %v", k, got, ref.counts)
		}
		if rung.Acc != ref.acc {
			return counts, fmt.Errorf("at rung %d: ladder accuracy %+v, reference %+v", k, rung.Acc, ref.acc)
		}
		if got, scalar := rung.Oracle.FAMisses(), ref.oracle.FAMisses(); got != ref.faMisses || scalar != ref.faMisses {
			return counts, fmt.Errorf("at rung %d: fully-associative misses: ladder %d, scalar oracle %d, reference %d", k, got, scalar, ref.faMisses)
		}
		for i, c := range ref.counts {
			counts[i] += c
		}
	}
	return counts, nil
}

// TestNewLadderRejectsBadRungs pins NewLadder's validation: rungs must
// exist, share a line size, not descend in capacity and carry valid
// caches, tag widths and depths, and a deeper MCT must store full tags.
// Repeated capacities are accepted and share one oracle region.
func TestNewLadderRejectsBadRungs(t *testing.T) {
	dm := func(size, line int) classify.Rung {
		return classify.Rung{Cache: cache.Config{Name: "L1D", Size: size, LineSize: line, Assoc: 1}}
	}
	for name, rungs := range map[string][]classify.Rung{
		"empty":      nil,
		"descending": {dm(32<<10, 64), dm(16<<10, 64)},
		"line sizes": {dm(16<<10, 64), dm(32<<10, 32)},
		"invalid":    {dm(16<<10, 64), dm(48<<10, 64)},
		"tag bits":   {{Cache: dm(16<<10, 64).Cache, TagBits: -1}},
		"depth -1":   {{Cache: dm(16<<10, 64).Cache, Depth: -1}},
		"depth 17":   {{Cache: dm(16<<10, 64).Cache, Depth: 17}},
		"deep+bits":  {{Cache: dm(16<<10, 64).Cache, Depth: 2, TagBits: 10}},
	} {
		if _, err := classify.NewLadder(rungs); err == nil {
			t.Errorf("%s: NewLadder accepted %+v", name, rungs)
		}
	}
	repeated := []classify.Rung{dm(16<<10, 64), dm(16<<10, 64), dm(32<<10, 64)}
	if _, err := classify.NewLadder(repeated); err != nil {
		t.Errorf("repeated: NewLadder rejected %+v: %v", repeated, err)
	}
}
