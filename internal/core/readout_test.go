package core_test

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/trace"
	"repro/internal/workload"
)

// quickAccesses is how many memory accesses of each benchmark paperbench
// -quick measures.
const quickAccesses = 150_000

// paperL1 is the paper's 16KB direct-mapped L1 data cache.
var paperL1 = cache.Config{Name: "L1D", Size: 16 << 10, LineSize: 64, Assoc: 1}

// replaySuite plays the first quickAccesses memory accesses of every suite
// benchmark through its own paperL1, calling miss with each miss's set and
// tag before the fill and evict with each victim's set and tag. The cache
// never reads a line's conflict bit, so the fills carry none.
func replaySuite(miss, evict func(set, tag uint64)) {
	for _, b := range workload.Suite() {
		c := cache.MustNew(paperL1)
		geom := c.Geometry()
		s := trace.NewLimit(b.MemStream(workload.DefaultSeed), quickAccesses)
		var in trace.Instr
		for s.Next(&in) {
			store := in.Op == trace.Store
			typ := mem.Load
			if store {
				typ = mem.Store
			}
			if c.Access(in.Addr, typ) {
				continue
			}
			miss(geom.Set(in.Addr), geom.Tag(in.Addr))
			if ev := c.Fill(in.Addr, store, false); ev.Occurred {
				evict(geom.SetOfLine(ev.Line), geom.TagOfLine(ev.Line))
			}
		}
	}
}

// TestDeepMCTIsPrefixOfDeepest is the depth differential the classifier
// ladder's depth read-out rests on: RecordEviction is move-to-front with
// truncation, so on every miss of every suite benchmark a depth-d table
// must report the match order of a MaxDepth-deep table fed the same
// evictions when that order is at most d, and no match otherwise. It
// holds at full tags and at 10 and 4 stored bits (a masked table is the
// prefix of the equally masked deepest one).
func TestDeepMCTIsPrefixOfDeepest(t *testing.T) {
	depths := []int{1, 2, 3, 4, 16}
	for _, bits := range []int{0, 10, 4} {
		cfg := core.Config{Sets: paperL1.Sets(), TagBits: bits}
		deepest := core.MustNewDeep(cfg, core.MaxDepth)
		tables := make([]*core.DeepMCT, len(depths))
		for k, d := range depths {
			tables[k] = core.MustNewDeep(cfg, d)
		}
		var orders [core.MaxDepth + 1]uint64
		var bad int
		replaySuite(func(set, tag uint64) {
			order := deepest.Classify(set, tag)
			if _, o := deepest.Match(set, tag); o != order {
				t.Fatalf("tag bits %d: set %d tag %#x: Match order %d, Classify %d", bits, set, tag, o, order)
			}
			orders[order]++
			for k, m := range tables {
				want := order
				if want > depths[k] {
					want = 0
				}
				if got := m.Classify(set, tag); got != want {
					if bad++; bad <= 5 {
						t.Errorf("tag bits %d, depth %d: set %d tag %#x matched at order %d, deepest table's read-out %d", bits, depths[k], set, tag, got, want)
					}
				}
			}
		}, func(set, tag uint64) {
			deepest.RecordEviction(set, tag)
			for _, m := range tables {
				m.RecordEviction(set, tag)
			}
		})
		if bad > 0 {
			t.Errorf("tag bits %d: %d disagreements", bits, bad)
		}
		// Matches beyond the shallowest depths must occur, or the
		// comparison proves little.
		if orders[2] == 0 || orders[5] == 0 {
			t.Errorf("tag bits %d: match orders %v never reach orders 2 and 5", bits, orders)
		}
		t.Logf("tag bits %d: misses by match order %v", bits, orders)
	}
}

// TestMCTWidthIsMatchReadOut is the tag-width differential the
// classifier ladder's width read-out rests on: on every miss of every
// suite benchmark, an MCT storing k bits of each victim's tag must match
// exactly when WidthMatches reads a match from the Match of one full-tag
// table fed the same evictions.
func TestMCTWidthIsMatchReadOut(t *testing.T) {
	widths := []int{1, 2, 3, 4, 5, 6, 8, 10, 12, 14, 16, 32, 63, 64, 0}
	full := core.MustNewDeep(core.Config{Sets: paperL1.Sets()}, 1)
	tables := make([]*core.MCT, len(widths))
	for k, w := range widths {
		tables[k] = core.MustNew(core.Config{Sets: paperL1.Sets(), TagBits: w})
	}
	var bad, edges int
	replaySuite(func(set, tag uint64) {
		matched, _ := full.Match(set, tag)
		for k, m := range tables {
			want := core.WidthMatches(matched, widths[k])
			if got := m.Classify(set, tag) == core.Conflict; got != want {
				if bad++; bad <= 5 {
					t.Errorf("%d tag bits: set %d tag %#x: MCT conflict=%v, read-out of %d matched bits %v", widths[k], set, tag, got, matched, want)
				}
			}
			if matched == widths[k] {
				edges++
			}
		}
	}, func(set, tag uint64) {
		full.RecordEviction(set, tag)
		for _, m := range tables {
			m.RecordEviction(set, tag)
		}
	})
	if bad > 0 {
		t.Errorf("%d disagreements", bad)
	}
	// Misses matching exactly k low bits test the read-out's boundary.
	if edges == 0 {
		t.Error("no miss matched exactly a tested width's bits")
	}
}
