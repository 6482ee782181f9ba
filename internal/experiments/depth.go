package experiments

import (
	"context"
	"fmt"

	"repro/internal/cache"
	"repro/internal/classify"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/runner"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// DepthPoint is the suite-aggregate accuracy of a DeepMCT at one history
// depth.
type DepthPoint struct {
	Depth       int
	ConflictAcc float64
	CapacityAcc float64
	OverallAcc  float64
	// Turb3dConflictAcc tracks the benchmark with the known order-2
	// conflicts (three planes round-robin) that the depth-1 table is
	// blind to.
	Turb3dConflictAcc float64
	// StorageBits is the table cost at 10-bit tags.
	StorageBits int
}

// DepthResult is the eviction-history-depth study: the extension the
// paper names but does not evaluate.
type DepthResult struct {
	Points []DepthPoint
}

// MCTDepth sweeps the DeepMCT's history depth on the paper's 16KB DM
// cache. The expected shape: depth 2 recovers most of the conflict
// accuracy the one-deep table loses to higher-order rotations (turb3d),
// with diminishing returns past depth 3 and linear storage growth.
func MCTDepth(p Params) (DepthResult, error) {
	p = p.withDefaults()
	cfg := cache.Config{Name: "L1D", Size: 16 << 10, LineSize: 64, Assoc: 1}
	depths := []int{1, 2, 3, 4}
	points, err := runner.MapN(context.Background(), len(depths),
		func(i int) string { return fmt.Sprintf("depth/%d", depths[i]) },
		func(_ context.Context, di int) (DepthPoint, error) {
			depth := depths[di]
			var agg classify.Accuracy
			var turb classify.Accuracy
			for _, b := range workload.Suite() {
				acc := depthRun(b, cfg, depth, p)
				agg.Merge(acc)
				if b.Name == "turb3d" {
					turb = acc
				}
			}
			return DepthPoint{
				Depth:             depth,
				ConflictAcc:       agg.ConflictAccuracy(),
				CapacityAcc:       agg.CapacityAccuracy(),
				OverallAcc:        agg.OverallAccuracy(),
				Turb3dConflictAcc: turb.ConflictAccuracy(),
				StorageBits:       core.MustNewDeep(core.Config{Sets: cfg.Sets(), TagBits: 10}, depth).StorageBits(0),
			}, nil
		})
	if err != nil {
		return DepthResult{}, err
	}
	return DepthResult{Points: points}, nil
}

// depthRun plays one benchmark through cache + DeepMCT + oracle in
// lockstep. The oracle's conflict definition is widened to match the
// depth: a miss is an order-≤k conflict iff it hits a fully-associative
// LRU cache of the same capacity, which is the classic definition the
// paper's depth-1 table approximates; we keep that single oracle so the
// depths are compared against one fixed ground truth.
func depthRun(b *workload.Benchmark, cfg cache.Config, depth int, p Params) classify.Accuracy {
	l1 := cache.MustNew(cfg)
	mct := core.MustNewDeep(core.Config{Sets: cfg.Sets()}, depth)
	oracle := classify.MustNewOracle(cfg)
	geom := l1.Geometry()
	var acc classify.Accuracy

	s := b.MemStream(p.Seed)
	var in trace.Instr
	for n := uint64(0); n < p.MemAccesses && s.Next(&in); n++ {
		isStore := in.Op == trace.Store
		typ := mem.Load
		if isStore {
			typ = mem.Store
		}
		hit := l1.Access(in.Addr, typ)
		kind := oracle.Observe(in.Addr, hit)
		if hit {
			continue
		}
		set, tag := geom.Set(in.Addr), geom.Tag(in.Addr)
		_, class := mct.ClassifyMiss(set, tag)
		acc.Record(kind, class)
		ev := l1.Fill(in.Addr, isStore, class == core.Conflict)
		if ev.Occurred {
			mct.RecordEviction(geom.SetOfLine(ev.Line), geom.TagOfLine(ev.Line))
		}
	}
	return acc
}

// Table renders the depth sweep.
func (r DepthResult) Table() *stats.Table {
	t := stats.NewTable("Extension: eviction-history depth (16KB DM, 10-bit tags for storage)",
		"depth", "conflict acc %", "capacity acc %", "overall %", "turb3d conf %", "storage (KB)")
	for _, pt := range r.Points {
		t.AddRow(fmt.Sprint(pt.Depth),
			fmt.Sprintf("%.1f", 100*pt.ConflictAcc),
			fmt.Sprintf("%.1f", 100*pt.CapacityAcc),
			fmt.Sprintf("%.1f", 100*pt.OverallAcc),
			fmt.Sprintf("%.1f", 100*pt.Turb3dConflictAcc),
			fmt.Sprintf("%.2f", float64(pt.StorageBits)/8192))
	}
	return t
}

// PointAt returns the point for a depth.
func (r DepthResult) PointAt(depth int) (DepthPoint, bool) {
	for _, pt := range r.Points {
		if pt.Depth == depth {
			return pt, true
		}
	}
	return DepthPoint{}, false
}
