package experiments

import (
	"fmt"

	"repro/internal/classify"
	"repro/internal/stats"
)

// Fig2TagBits is the sweep of stored-tag widths (0 = full tag), matching
// the paper's x-axis for a 16KB direct-mapped cache.
var Fig2TagBits = []int{1, 2, 3, 4, 5, 6, 8, 10, 12, 14, 16, TagBitsFull}

// Fig2Point is the suite-average accuracy at one stored-tag width.
type Fig2Point struct {
	TagBits       int // 0 = full
	ConflictAcc   float64
	CapacityAcc   float64
	OverallAcc    float64
	ConflictShare float64
}

// Fig2Result is the Figure-2 reproduction: accuracy versus number of
// evicted-tag bits stored per MCT entry, 16KB DM cache, suite average.
type Fig2Result struct {
	Points []Fig2Point
}

// Figure2 sweeps MCT tag widths. With few bits, false tag matches inflate
// the conflict classification, so conflict accuracy starts artificially
// high and capacity accuracy low; by 8–12 bits both converge to the
// full-tag values (the paper's storage-efficiency claim). Each tag width
// is a rung of one ladder over each benchmark's stream, and all of them
// read one cache's full-tag eviction history.
func Figure2(p Params) (Fig2Result, error) {
	results, err := measureLadder("fig2", fig2Rungs(), p)
	if err != nil {
		return Fig2Result{}, err
	}
	points := make([]Fig2Point, len(Fig2TagBits))
	for pi, bits := range Fig2TagBits {
		var acc classify.Accuracy
		for _, res := range results {
			acc.Merge(res[pi].Acc)
		}
		points[pi] = Fig2Point{
			TagBits:       bits,
			ConflictAcc:   acc.ConflictAccuracy(),
			CapacityAcc:   acc.CapacityAccuracy(),
			OverallAcc:    acc.OverallAccuracy(),
			ConflictShare: acc.ConflictShare(),
		}
	}
	return Fig2Result{Points: points}, nil
}

// fig2Rungs is the 16KB direct-mapped cache at every Fig2TagBits width.
func fig2Rungs() []classify.Rung {
	rungs := make([]classify.Rung, len(Fig2TagBits))
	for i, bits := range Fig2TagBits {
		rungs[i] = classify.Rung{Cache: paperL1, TagBits: bits}
	}
	return rungs
}

// Table renders the Figure-2 series as text.
func (r Fig2Result) Table() *stats.Table {
	t := stats.NewTable("Figure 2: accuracy vs stored tag bits (16KB DM, suite aggregate)",
		"tag bits", "conflict acc %", "capacity acc %", "overall %")
	for _, pt := range r.Points {
		label := fmt.Sprintf("%d", pt.TagBits)
		if pt.TagBits == TagBitsFull {
			label = "full"
		}
		t.AddRow(label,
			fmt.Sprintf("%.1f", 100*pt.ConflictAcc),
			fmt.Sprintf("%.1f", 100*pt.CapacityAcc),
			fmt.Sprintf("%.1f", 100*pt.OverallAcc))
	}
	return t
}

// PointAt returns the sweep point for a tag width, if measured.
func (r Fig2Result) PointAt(bits int) (Fig2Point, bool) {
	for _, pt := range r.Points {
		if pt.TagBits == bits {
			return pt, true
		}
	}
	return Fig2Point{}, false
}
