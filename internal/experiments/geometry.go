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

// geometryConfigs are the index schemes the study sweeps. The shape is
// held fixed at 16KB 2-way 64B — skewing needs at least two ways to give
// each way its own hash, and 2-way is where the paper's conflict problem
// is still alive — so the only variable is how addresses map to rows.
// The MCT itself always indexes by the modulo geometry: the question is
// precisely whether the paper's table still identifies conflicts once the
// cache underneath stops agreeing with it about what a "set" is.
var geometryConfigs = []struct {
	Name string
	Cfg  cache.Config
}{
	{"modulo", cache.Config{Name: "L1D", Size: 16 << 10, LineSize: 64, Assoc: 2, Indexing: cache.IndexModulo}},
	{"skewed", cache.Config{Name: "L1D", Size: 16 << 10, LineSize: 64, Assoc: 2, Indexing: cache.IndexSkewed}},
	{"random", cache.Config{Name: "L1D", Size: 16 << 10, LineSize: 64, Assoc: 2, Indexing: cache.IndexRandom}},
}

// GeometryCell is one benchmark×scheme accuracy measurement against the
// fully-associative oracle (which is index-independent, so it is the same
// ground truth for all three schemes).
type GeometryCell struct {
	Scheme        string
	ConflictAcc   float64
	CapacityAcc   float64
	OverallAcc    float64
	ConflictShare float64
	MissRate      float64
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
	p = p.withDefaults()
	suite := workload.Suite()

	tasks := make([]runner.Task[GeometryCell], 0, len(suite)*len(geometryConfigs))
	for _, b := range suite {
		b := b
		for ci := range geometryConfigs {
			gc := geometryConfigs[ci]
			tasks = append(tasks, runner.NewTask("geometry/"+b.Name+"/"+gc.Name,
				func(context.Context) (GeometryCell, error) {
					return geometryCell(b, gc.Name, gc.Cfg, p)
				}))
		}
	}
	cells, err := runner.Map(context.Background(), tasks)
	if err != nil {
		return GeometryResult{}, err
	}

	res := GeometryResult{
		Rows:              make([]GeometryRow, len(suite)),
		MeanConflictAcc:   map[string]float64{},
		MeanCapacityAcc:   map[string]float64{},
		MeanOverallAcc:    map[string]float64{},
		MeanMissRate:      map[string]float64{},
		MeanConflictShare: map[string]float64{},
	}
	for bi, b := range suite {
		row := GeometryRow{Bench: b.Name, Cells: make([]GeometryCell, len(geometryConfigs))}
		copy(row.Cells, cells[bi*len(geometryConfigs):(bi+1)*len(geometryConfigs)])
		res.Rows[bi] = row
	}
	for ci, gc := range geometryConfigs {
		var conf, capa, all, miss, share []float64
		for _, r := range res.Rows {
			c := r.Cells[ci]
			if c.ConflictShare > 0.001 {
				conf = append(conf, c.ConflictAcc)
			}
			capa = append(capa, c.CapacityAcc)
			all = append(all, c.OverallAcc)
			miss = append(miss, c.MissRate)
			share = append(share, c.ConflictShare)
		}
		res.MeanConflictAcc[gc.Name] = stats.Mean(conf)
		res.MeanCapacityAcc[gc.Name] = stats.Mean(capa)
		res.MeanOverallAcc[gc.Name] = stats.Mean(all)
		res.MeanMissRate[gc.Name] = stats.Mean(miss)
		res.MeanConflictShare[gc.Name] = stats.Mean(share)
	}
	return res, nil
}

func geometryCell(b *workload.Benchmark, name string, cfg cache.Config, p Params) (GeometryCell, error) {
	r, err := classify.NewRun(cfg, TagBitsFull)
	if err != nil {
		return GeometryCell{}, fmt.Errorf("experiments: geometry %s/%s: %w", b.Name, name, err)
	}
	s := b.MemStream(p.Seed)
	var in trace.Instr
	for n := uint64(0); n < p.MemAccesses && s.Next(&in); n++ {
		r.Access(in.Addr, in.Op == trace.Store)
	}
	acc := r.Acc
	return GeometryCell{
		Scheme:        name,
		ConflictAcc:   acc.ConflictAccuracy(),
		CapacityAcc:   acc.CapacityAccuracy(),
		OverallAcc:    acc.OverallAccuracy(),
		ConflictShare: acc.ConflictShare(),
		MissRate:      r.CC.Cache().Stats().MissRate(),
	}, nil
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
