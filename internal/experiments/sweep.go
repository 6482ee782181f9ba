package experiments

import (
	"context"
	"fmt"

	"repro/internal/cache"
	"repro/internal/classify"
	"repro/internal/runner"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
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
func ConfigSweep(p Params) (SweepResult, error) {
	p = p.withDefaults()
	var grid []SweepCell
	for _, sizeKB := range []int{8, 16, 32, 64} {
		for _, assoc := range []int{1, 2, 4} {
			grid = append(grid, SweepCell{SizeKB: sizeKB, Assoc: assoc})
		}
	}
	cells, err := runner.MapN(context.Background(), len(grid),
		func(i int) string { return fmt.Sprintf("sweep/%dKB-%dway", grid[i].SizeKB, grid[i].Assoc) },
		func(_ context.Context, ci int) (SweepCell, error) {
			c := grid[ci]
			cfg := cache.Config{Name: "L1D", Size: c.SizeKB << 10, LineSize: 64, Assoc: c.Assoc}
			var agg classify.Accuracy
			var accesses, misses uint64
			for _, b := range workload.Suite() {
				r, err := classify.NewRun(cfg, TagBitsFull)
				if err != nil {
					return c, fmt.Errorf("experiments: sweep %dKB/%d-way: %w", c.SizeKB, c.Assoc, err)
				}
				s := b.MemStream(p.Seed)
				var in trace.Instr
				for n := uint64(0); n < p.MemAccesses && s.Next(&in); n++ {
					r.Access(in.Addr, in.Op == trace.Store)
				}
				agg.Merge(r.Acc)
				st := r.CC.Cache().Stats()
				accesses += st.Accesses
				misses += st.Misses
			}
			c.MissRate = stats.Ratio(misses, accesses)
			c.ConflictShare = agg.ConflictShare()
			c.ConflictAcc = agg.ConflictAccuracy()
			c.CapacityAcc = agg.CapacityAccuracy()
			c.OverallAcc = agg.OverallAccuracy()
			return c, nil
		})
	if err != nil {
		return SweepResult{}, err
	}
	return SweepResult{Cells: cells}, nil
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
