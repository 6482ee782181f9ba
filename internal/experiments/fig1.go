package experiments

import (
	"context"
	"fmt"

	"repro/internal/cache"
	"repro/internal/classify"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// AccuracyCell is one benchmark×configuration accuracy measurement
// against the classic oracle, shared by Figure 1 and the index-scheme
// study.
type AccuracyCell struct {
	ConflictAcc   float64
	CapacityAcc   float64
	OverallAcc    float64
	ConflictShare float64
	MissRate      float64
}

// Fig1Cell is one benchmark×configuration accuracy measurement.
type Fig1Cell struct {
	Config string
	AccuracyCell
}

// Fig1Row is one benchmark's bars across the four cache configurations.
type Fig1Row struct {
	Bench string
	Cells []Fig1Cell
}

// Fig1Result is the full Figure-1 reproduction.
type Fig1Result struct {
	Rows []Fig1Row
	// MeanConflictAcc and MeanCapacityAcc are suite averages per
	// configuration, the numbers quoted in the paper's Section 3 text
	// (88%/86% for 16KB DM, 91%/92% for 64KB DM).
	MeanConflictAcc map[string]float64
	MeanCapacityAcc map[string]float64
	MeanOverallAcc  map[string]float64
}

// Figure1 measures MCT classification accuracy (full tags) against the
// classic oracle for every benchmark on the four cache configurations.
func Figure1(p Params) (Fig1Result, error) {
	rows, means, err := accuracyGrid("fig1", figure1Configs, p)
	if err != nil {
		return Fig1Result{}, err
	}
	res := Fig1Result{
		Rows:            make([]Fig1Row, len(rows)),
		MeanConflictAcc: map[string]float64{},
		MeanCapacityAcc: map[string]float64{},
		MeanOverallAcc:  map[string]float64{},
	}
	for bi, b := range workload.Suite() {
		res.Rows[bi] = Fig1Row{Bench: b.Name}
		for ci, cfg := range figure1Configs {
			res.Rows[bi].Cells = append(res.Rows[bi].Cells, Fig1Cell{cfg.Name, rows[bi][ci]})
		}
	}
	for ci, cfg := range figure1Configs {
		res.MeanConflictAcc[cfg.Name] = means[ci].ConflictAcc
		res.MeanCapacityAcc[cfg.Name] = means[ci].CapacityAcc
		res.MeanOverallAcc[cfg.Name] = means[ci].OverallAcc
	}
	return res, nil
}

// accuracyGrid measures every suite benchmark on every configuration
// (full tags), one runner task per cell labelled prefix/<bench>/<config>.
// It returns the cells by benchmark, then configuration, and the suite
// mean of each field per configuration. Benchmarks with essentially no
// conflict misses under a configuration contribute no conflict-accuracy
// sample (their ratio is 0/0), matching the paper's per-benchmark bars.
func accuracyGrid(prefix string, cfgs []namedConfig, p Params) ([][]AccuracyCell, []AccuracyCell, error) {
	p = p.withDefaults()
	suite := workload.Suite()
	n := len(cfgs)
	cells, err := runner.MapN(context.Background(), len(suite)*n,
		func(i int) string { return prefix + "/" + suite[i/n].Name + "/" + cfgs[i%n].Name },
		func(_ context.Context, i int) (AccuracyCell, error) {
			b, cfg := suite[i/n], cfgs[i%n]
			acc, st, err := measure(b, cfg.Cfg, TagBitsFull, p)
			if err != nil {
				return AccuracyCell{}, fmt.Errorf("experiments: %s %s/%s: %w", prefix, b.Name, cfg.Name, err)
			}
			return AccuracyCell{
				ConflictAcc:   acc.ConflictAccuracy(),
				CapacityAcc:   acc.CapacityAccuracy(),
				OverallAcc:    acc.OverallAccuracy(),
				ConflictShare: acc.ConflictShare(),
				MissRate:      st.MissRate(),
			}, nil
		})
	if err != nil {
		return nil, nil, err
	}
	rows := make([][]AccuracyCell, len(suite))
	for bi := range suite {
		rows[bi] = cells[bi*n : (bi+1)*n]
	}
	means := make([]AccuracyCell, n)
	for ci := range cfgs {
		var conf, capa, all, miss, share []float64
		for _, r := range rows {
			c := r[ci]
			if c.ConflictShare > 0.001 {
				conf = append(conf, c.ConflictAcc)
			}
			capa = append(capa, c.CapacityAcc)
			all = append(all, c.OverallAcc)
			miss = append(miss, c.MissRate)
			share = append(share, c.ConflictShare)
		}
		means[ci] = AccuracyCell{
			ConflictAcc:   stats.Mean(conf),
			CapacityAcc:   stats.Mean(capa),
			OverallAcc:    stats.Mean(all),
			ConflictShare: stats.Mean(share),
			MissRate:      stats.Mean(miss),
		}
	}
	return rows, means, nil
}

// measure plays the first p.MemAccesses memory references of b's stream
// through the real cache, an MCT storing tagBits bits per entry (0 = full
// tags) and the oracle in lockstep, on the batched kernel. It returns the
// MCT's accuracy against the oracle and the real cache's stats.
func measure(b *workload.Benchmark, cfg cache.Config, tagBits int, p Params) (classify.Accuracy, cache.Stats, error) {
	r, err := classify.NewRun(cfg, tagBits)
	if err != nil {
		return classify.Accuracy{}, cache.Stats{}, err
	}
	sim.ClassifyBatched(r, trace.NewStreamBatcher(trace.NewLimit(b.MemStream(p.Seed), p.MemAccesses)), 0)
	return r.Acc, r.CC.Cache().Stats(), nil
}

// Table renders the Figure-1 data as text.
func (r Fig1Result) Table() *stats.Table {
	cols := []string{"benchmark"}
	for _, c := range figure1Configs {
		cols = append(cols, c.Name+" conf%", c.Name+" cap%")
	}
	t := stats.NewTable("Figure 1: MCT classification accuracy (full tags)", cols...)
	for _, row := range r.Rows {
		cells := []string{row.Bench}
		for _, c := range row.Cells {
			cells = append(cells, fmt.Sprintf("%.1f", 100*c.ConflictAcc), fmt.Sprintf("%.1f", 100*c.CapacityAcc))
		}
		t.AddRow(cells...)
	}
	mean := []string{"MEAN"}
	for _, c := range figure1Configs {
		mean = append(mean,
			fmt.Sprintf("%.1f", 100*r.MeanConflictAcc[c.Name]),
			fmt.Sprintf("%.1f", 100*r.MeanCapacityAcc[c.Name]))
	}
	t.AddRow(mean...)
	return t
}
