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
// (full tags) in one ladder pass per benchmark (measureLadder). It
// returns the cells by benchmark, then configuration, and the suite mean
// of each field per configuration. Benchmarks with essentially no
// conflict misses under a configuration contribute no conflict-accuracy
// sample (their ratio is 0/0), matching the paper's per-benchmark bars.
func accuracyGrid(prefix string, cfgs []namedConfig, p Params) ([][]AccuracyCell, []AccuracyCell, error) {
	results, err := measureLadder(prefix, fullTagRungs(cfgs), p)
	if err != nil {
		return nil, nil, err
	}
	rows := make([][]AccuracyCell, len(results))
	for bi, res := range results {
		rows[bi] = make([]AccuracyCell, len(res))
		for ci, r := range res {
			rows[bi][ci] = AccuracyCell{
				ConflictAcc:   r.Acc.ConflictAccuracy(),
				CapacityAcc:   r.Acc.CapacityAccuracy(),
				OverallAcc:    r.Acc.OverallAccuracy(),
				ConflictShare: r.Acc.ConflictShare(),
				MissRate:      r.Stats.MissRate(),
			}
		}
	}
	means := make([]AccuracyCell, len(cfgs))
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

// fullTagRungs is one full-tag ladder rung per configuration.
func fullTagRungs(cfgs []namedConfig) []classify.Rung {
	rungs := make([]classify.Rung, len(cfgs))
	for i, c := range cfgs {
		rungs[i] = classify.Rung{Cache: c.Cfg, TagBits: TagBitsFull}
	}
	return rungs
}

// rungResult is one ladder rung's measurement over one benchmark: the
// MCT's accuracy against the oracle and the real cache's stats.
type rungResult struct {
	Acc   classify.Accuracy
	Stats cache.Stats
}

// measureLadder plays the first p.MemAccesses memory references of each
// suite benchmark's stream once through a classifier ladder of the given
// rungs (non-descending capacity), on the batched kernel, one runner task
// per benchmark labelled prefix/<bench>. It returns each benchmark's
// results, in suite order, rung by rung.
func measureLadder(prefix string, rungs []classify.Rung, p Params) ([][]rungResult, error) {
	p = p.withDefaults()
	suite := workload.Suite()
	return runner.MapN(context.Background(), len(suite),
		func(i int) string { return prefix + "/" + suite[i].Name },
		func(_ context.Context, i int) ([]rungResult, error) {
			b := suite[i]
			l, err := classify.NewLadder(rungs)
			if err != nil {
				return nil, fmt.Errorf("experiments: %s %s: %w", prefix, b.Name, err)
			}
			src := trace.StreamAccesses(trace.NewLimit(b.MemStream(p.Seed), p.MemAccesses))
			sim.NewBatchClassifier(l, 0).ClassifyAll(src)
			res := make([]rungResult, len(rungs))
			for k, r := range l.Rungs {
				res[k] = rungResult{Acc: r.Acc, Stats: r.Cache.Stats()}
			}
			return res, nil
		})
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
