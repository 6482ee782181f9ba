package experiments

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/classify"
	"repro/internal/stats"
)

// SweepCell is the suite-aggregate classification behavior of one cache
// configuration.
type SweepCell struct {
	SizeKB        int
	Assoc         int
	MissRate      float64
	ConflictShare float64
	ConflictAcc   float64
	CapacityAcc   float64
	OverallAcc    float64
}

// SweepResult is the configuration-grid generalization of Figure 1: the
// MCT's accuracy and the suite's miss composition across cache sizes and
// associativities beyond the four the paper plots.
type SweepResult struct {
	Cells []SweepCell
}

// ConfigSweep measures the suite over {8,16,32,64}KB x {1,2,4}-way caches.
// The paper's implicit claims under test: classification stays accurate
// everywhere (it is not tuned to 16KB DM), and the conflict share shrinks
// with associativity — the reason the authors expected large multithreaded
// and OLTP workloads, not bigger caches, to be the technique's future.
// Each configuration is a rung of one ladder over each benchmark's stream.
func ConfigSweep(p Params) (SweepResult, error) {
	rungs := sweepRungs()
	results, err := measureLadder("sweep", rungs, p)
	if err != nil {
		return SweepResult{}, err
	}
	cells := make([]SweepCell, len(rungs))
	for ci, rung := range rungs {
		var agg classify.Accuracy
		var accesses, misses uint64
		for _, res := range results {
			agg.Merge(res[ci].Acc)
			accesses += res[ci].Stats.Accesses
			misses += res[ci].Stats.Misses
		}
		cells[ci] = SweepCell{
			SizeKB:        rung.Cache.Size >> 10,
			Assoc:         rung.Cache.Assoc,
			MissRate:      stats.Ratio(misses, accesses),
			ConflictShare: agg.ConflictShare(),
			ConflictAcc:   agg.ConflictAccuracy(),
			CapacityAcc:   agg.CapacityAccuracy(),
			OverallAcc:    agg.OverallAccuracy(),
		}
	}
	return SweepResult{Cells: cells}, nil
}

// sweepRungs is the sweep's grid as full-tag ladder rungs, in ascending
// capacity.
func sweepRungs() []classify.Rung {
	var rungs []classify.Rung
	for _, sizeKB := range []int{8, 16, 32, 64} {
		for _, assoc := range []int{1, 2, 4} {
			cfg := cache.Config{Name: "L1D", Size: sizeKB << 10, LineSize: 64, Assoc: assoc}
			rungs = append(rungs, classify.Rung{Cache: cfg, TagBits: TagBitsFull})
		}
	}
	return rungs
}

// Table renders the grid.
func (r SweepResult) Table() *stats.Table {
	t := stats.NewTable("Extension: classification across cache configurations (suite aggregate)",
		"config", "miss %", "conflict share %", "conf acc %", "cap acc %", "overall %")
	for _, c := range r.Cells {
		t.AddRow(fmt.Sprintf("%dKB %d-way", c.SizeKB, c.Assoc),
			fmt.Sprintf("%.2f", 100*c.MissRate),
			fmt.Sprintf("%.1f", 100*c.ConflictShare),
			fmt.Sprintf("%.1f", 100*c.ConflictAcc),
			fmt.Sprintf("%.1f", 100*c.CapacityAcc),
			fmt.Sprintf("%.1f", 100*c.OverallAcc))
	}
	return t
}

// CellAt returns the cell for a configuration.
func (r SweepResult) CellAt(sizeKB, assoc int) (SweepCell, bool) {
	for _, c := range r.Cells {
		if c.SizeKB == sizeKB && c.Assoc == assoc {
			return c, true
		}
	}
	return SweepCell{}, false
}

// MinOverallAcc returns the worst overall accuracy across the grid — the
// generalized version of the paper's "87% in the worst case".
func (r SweepResult) MinOverallAcc() float64 {
	min := 1.0
	for _, c := range r.Cells {
		if c.OverallAcc < min {
			min = c.OverallAcc
		}
	}
	return min
}
