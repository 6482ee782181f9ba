package experiments

import (
	"fmt"

	"repro/internal/classify"
	"repro/internal/core"
	"repro/internal/stats"
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

// mctDepths are the history depths the study measures.
var mctDepths = []int{1, 2, 3, 4}

// MCTDepth sweeps the DeepMCT's history depth on the paper's 16KB DM
// cache. The expected shape: depth 2 recovers most of the conflict
// accuracy the one-deep table loses to higher-order rotations (turb3d),
// with diminishing returns past depth 3 and linear storage growth. Each
// depth is a rung of one ladder over each benchmark's stream, all reading
// one cache's eviction history, and every depth is checked against one
// fixed ground truth: the classic oracle of the paper's depth-1 table.
func MCTDepth(p Params) (DepthResult, error) {
	results, err := measureLadder("depth", depthRungs(), p)
	if err != nil {
		return DepthResult{}, err
	}
	suite := workload.Suite()
	points := make([]DepthPoint, len(mctDepths))
	for di, depth := range mctDepths {
		var agg, turb classify.Accuracy
		for bi, res := range results {
			agg.Merge(res[di].Acc)
			if suite[bi].Name == "turb3d" {
				turb = res[di].Acc
			}
		}
		points[di] = DepthPoint{
			Depth:             depth,
			ConflictAcc:       agg.ConflictAccuracy(),
			CapacityAcc:       agg.CapacityAccuracy(),
			OverallAcc:        agg.OverallAccuracy(),
			Turb3dConflictAcc: turb.ConflictAccuracy(),
			StorageBits:       core.MustNewDeep(core.Config{Sets: paperL1.Sets(), TagBits: 10}, depth).StorageBits(0),
		}
	}
	return DepthResult{Points: points}, nil
}

// depthRungs is the 16KB direct-mapped cache at every studied depth, with
// full tags.
func depthRungs() []classify.Rung {
	rungs := make([]classify.Rung, len(mctDepths))
	for i, d := range mctDepths {
		rungs[i] = classify.Rung{Cache: paperL1, Depth: d}
	}
	return rungs
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
