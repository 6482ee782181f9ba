package experiments

import (
	"context"
	"fmt"

	"repro/internal/mrc"
	"repro/internal/runner"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// mrcRates are the sampling rates the study validates against the exact
// (rate-1, unbounded) Mattson profile. 0.1 is the conservative setting;
// 0.01 is SHARDS' fixed-rate operating point and the service default.
var mrcRates = []float64{0.1, 0.01}

// mrcLadder is the capacity ladder (in cache lines) the curves are
// compared over: 4KB through 512KB at 64B lines, one point per octave.
var mrcLadder = []uint64{64, 128, 256, 512, 1024, 2048, 4096, 8192}

// MRCCell is one benchmark×rate error measurement: the sampled curve's
// mean and worst absolute miss-ratio error against the exact curve over
// the ladder, plus how many references the sampler actually processed.
type MRCCell struct {
	Rate    float64
	MAE     float64
	MaxErr  float64
	Sampled uint64
}

// MRCRow is one benchmark: its exact curve endpoints and the per-rate
// error cells.
type MRCRow struct {
	Bench string
	// ExactSmall and ExactLarge anchor the row: the true miss ratio at
	// the ladder's first (4KB) and last (512KB) capacities.
	ExactSmall float64
	ExactLarge float64
	Cells      []MRCCell
}

// MRCResult is the sampled-MRC validation study: how far SHARDS-style
// spatial sampling strays from exact stack distances on this suite, at
// the rates the /v1/mrc endpoint actually serves.
type MRCResult struct {
	Rows []MRCRow
	// MeanMAE and WorstErr aggregate per rate across the suite (keyed by
	// the rate formatted as its config literal, e.g. "0.01").
	MeanMAE  map[string]float64
	WorstErr map[string]float64
}

// rateKey formats a sampling rate as its aggregate-map key.
func rateKey(r float64) string { return fmt.Sprintf("%g", r) }

// MRCStudy runs every benchmark once through an exact profiler and once
// per sampled rate (all in a single pass over the trace), then scores
// each sampled curve against the exact one.
func MRCStudy(p Params) (MRCResult, error) {
	p = p.withDefaults()
	suite := workload.Suite()

	tasks := make([]runner.Task[MRCRow], 0, len(suite))
	for _, b := range suite {
		b := b
		tasks = append(tasks, runner.NewTask("mrc/"+b.Name,
			func(context.Context) (MRCRow, error) {
				return mrcRow(b, p)
			}))
	}
	rows, err := runner.Map(context.Background(), tasks)
	if err != nil {
		return MRCResult{}, err
	}

	res := MRCResult{
		Rows:     rows,
		MeanMAE:  map[string]float64{},
		WorstErr: map[string]float64{},
	}
	for ri, r := range mrcRates {
		var maes []float64
		worst := 0.0
		for _, row := range rows {
			c := row.Cells[ri]
			maes = append(maes, c.MAE)
			if c.MaxErr > worst {
				worst = c.MaxErr
			}
		}
		res.MeanMAE[rateKey(r)] = stats.Mean(maes)
		res.WorstErr[rateKey(r)] = worst
	}
	return res, nil
}

func mrcRow(b *workload.Benchmark, p Params) (MRCRow, error) {
	exact := mrc.New(mrc.Config{Rate: 1, MaxSampled: -1})
	sampled := make([]*mrc.Profiler, len(mrcRates))
	for i, r := range mrcRates {
		sampled[i] = mrc.New(mrc.Config{Rate: r})
	}

	s := b.MemStream(p.Seed)
	var in trace.Instr
	for n := uint64(0); n < p.MemAccesses && s.Next(&in); n++ {
		exact.Observe(in.Addr)
		for _, sp := range sampled {
			sp.Observe(in.Addr)
		}
	}

	truth := exact.Curve(mrcLadder)
	row := MRCRow{
		Bench:      b.Name,
		ExactSmall: truth[0].MissRatio,
		ExactLarge: truth[len(truth)-1].MissRatio,
		Cells:      make([]MRCCell, len(mrcRates)),
	}
	for i, sp := range sampled {
		est := sp.Curve(mrcLadder)
		var sum, max float64
		for j := range truth {
			err := est[j].MissRatio - truth[j].MissRatio
			if err < 0 {
				err = -err
			}
			sum += err
			if err > max {
				max = err
			}
		}
		row.Cells[i] = MRCCell{
			Rate:    mrcRates[i],
			MAE:     sum / float64(len(truth)),
			MaxErr:  max,
			Sampled: sp.SampledRefs(),
		}
	}
	return row, nil
}

// Table renders the sampled-MRC validation study.
func (r MRCResult) Table() *stats.Table {
	cols := []string{"benchmark", "exact 4KB", "exact 512KB"}
	for _, rate := range mrcRates {
		k := rateKey(rate)
		cols = append(cols, "mae@"+k, "max@"+k)
	}
	t := stats.NewTable("Extension: sampled MRC vs exact stack distances (64B lines, 4KB..512KB)", cols...)
	for _, row := range r.Rows {
		cells := []string{row.Bench,
			fmt.Sprintf("%.3f", row.ExactSmall),
			fmt.Sprintf("%.3f", row.ExactLarge)}
		for _, c := range row.Cells {
			cells = append(cells,
				fmt.Sprintf("%.4f", c.MAE),
				fmt.Sprintf("%.4f", c.MaxErr))
		}
		t.AddRow(cells...)
	}
	mean := []string{"MEAN", "", ""}
	for _, rate := range mrcRates {
		k := rateKey(rate)
		mean = append(mean,
			fmt.Sprintf("%.4f", r.MeanMAE[k]),
			fmt.Sprintf("%.4f", r.WorstErr[k]))
	}
	t.AddRow(mean...)
	return t
}
