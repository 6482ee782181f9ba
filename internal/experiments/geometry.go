package experiments

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/stats"
	"repro/internal/workload"
)

// geometryConfigs are the index schemes the study sweeps. The shape is
// held fixed at 16KB 2-way 64B — skewing needs at least two ways to give
// each way its own hash, and 2-way is where the paper's conflict problem
// is still alive — so the only variable is how addresses map to rows.
// The MCT itself always indexes by the modulo geometry: the question is
// precisely whether the paper's table still identifies conflicts once the
// cache underneath stops agreeing with it about what a "set" is.
var geometryConfigs = []namedConfig{
	{"modulo", cache.Config{Name: "L1D", Size: 16 << 10, LineSize: 64, Assoc: 2, Indexing: cache.IndexModulo}},
	{"skewed", cache.Config{Name: "L1D", Size: 16 << 10, LineSize: 64, Assoc: 2, Indexing: cache.IndexSkewed}},
	{"random", cache.Config{Name: "L1D", Size: 16 << 10, LineSize: 64, Assoc: 2, Indexing: cache.IndexRandom}},
}

// GeometryCell is one benchmark×scheme accuracy measurement against the
// fully-associative oracle (which is index-independent, so it is the same
// ground truth for all three schemes).
type GeometryCell struct {
	Scheme string
	AccuracyCell
}

// GeometryRow is one benchmark across the index schemes.
type GeometryRow struct {
	Bench string
	Cells []GeometryCell
}

// GeometryResult is the accuracy-vs-indexing study: does the MCT's
// conflict identification survive indexing schemes designed to destroy
// conflicts? Beyond reproducing the paper, this is the repo's first
// result past it.
type GeometryResult struct {
	Rows []GeometryRow
	// Suite means per scheme, conflict-accuracy averaged only over
	// benchmarks with a non-negligible conflict share (0/0 cells are
	// skipped, as in Figure 1).
	MeanConflictAcc   map[string]float64
	MeanCapacityAcc   map[string]float64
	MeanOverallAcc    map[string]float64
	MeanMissRate      map[string]float64
	MeanConflictShare map[string]float64
}

// GeometryStudy measures MCT classification accuracy for every benchmark
// under modulo, skewed, and randomized indexing.
func GeometryStudy(p Params) (GeometryResult, error) {
	rows, means, err := accuracyGrid("geometry", geometryConfigs, p)
	if err != nil {
		return GeometryResult{}, err
	}
	res := GeometryResult{
		Rows:              make([]GeometryRow, len(rows)),
		MeanConflictAcc:   map[string]float64{},
		MeanCapacityAcc:   map[string]float64{},
		MeanOverallAcc:    map[string]float64{},
		MeanMissRate:      map[string]float64{},
		MeanConflictShare: map[string]float64{},
	}
	for bi, b := range workload.Suite() {
		res.Rows[bi] = GeometryRow{Bench: b.Name}
		for ci, gc := range geometryConfigs {
			res.Rows[bi].Cells = append(res.Rows[bi].Cells, GeometryCell{gc.Name, rows[bi][ci]})
		}
	}
	for ci, gc := range geometryConfigs {
		res.MeanConflictAcc[gc.Name] = means[ci].ConflictAcc
		res.MeanCapacityAcc[gc.Name] = means[ci].CapacityAcc
		res.MeanOverallAcc[gc.Name] = means[ci].OverallAcc
		res.MeanMissRate[gc.Name] = means[ci].MissRate
		res.MeanConflictShare[gc.Name] = means[ci].ConflictShare
	}
	return res, nil
}

// Table renders the accuracy-vs-indexing study.
func (r GeometryResult) Table() *stats.Table {
	cols := []string{"benchmark"}
	for _, gc := range geometryConfigs {
		cols = append(cols, gc.Name+" conf%", gc.Name+" cap%", gc.Name+" miss%")
	}
	t := stats.NewTable("Extension: MCT accuracy vs index scheme (16KB 2-way, full tags)", cols...)
	for _, row := range r.Rows {
		cells := []string{row.Bench}
		for _, c := range row.Cells {
			cells = append(cells,
				fmt.Sprintf("%.1f", 100*c.ConflictAcc),
				fmt.Sprintf("%.1f", 100*c.CapacityAcc),
				fmt.Sprintf("%.2f", 100*c.MissRate))
		}
		t.AddRow(cells...)
	}
	mean := []string{"MEAN"}
	for _, gc := range geometryConfigs {
		mean = append(mean,
			fmt.Sprintf("%.1f", 100*r.MeanConflictAcc[gc.Name]),
			fmt.Sprintf("%.1f", 100*r.MeanCapacityAcc[gc.Name]),
			fmt.Sprintf("%.2f", 100*r.MeanMissRate[gc.Name]))
	}
	t.AddRow(mean...)
	return t
}
