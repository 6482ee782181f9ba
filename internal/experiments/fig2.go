package experiments

import (
	"context"
	"fmt"

	"repro/internal/cache"
	"repro/internal/classify"
	"repro/internal/runner"
	"repro/internal/stats"
	"repro/internal/workload"
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
// full-tag values (the paper's storage-efficiency claim).
func Figure2(p Params) (Fig2Result, error) {
	p = p.withDefaults()
	cfg := cache.Config{Name: "L1D", Size: 16 << 10, LineSize: 64, Assoc: 1}
	suite := workload.Suite()

	points, err := runner.MapN(context.Background(), len(Fig2TagBits),
		func(i int) string { return fmt.Sprintf("fig2/bits=%d", Fig2TagBits[i]) },
		func(_ context.Context, pi int) (Fig2Point, error) {
			bits := Fig2TagBits[pi]
			var acc classify.Accuracy
			for _, b := range suite {
				a, _, err := measure(b, cfg, bits, p)
				if err != nil {
					return Fig2Point{}, fmt.Errorf("experiments: figure 2 bits=%d: %w", bits, err)
				}
				acc.Merge(a)
			}
			return Fig2Point{
				TagBits:       bits,
				ConflictAcc:   acc.ConflictAccuracy(),
				CapacityAcc:   acc.CapacityAccuracy(),
				OverallAcc:    acc.OverallAccuracy(),
				ConflictShare: acc.ConflictShare(),
			}, nil
		})
	if err != nil {
		return Fig2Result{}, err
	}
	return Fig2Result{Points: points}, nil
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
