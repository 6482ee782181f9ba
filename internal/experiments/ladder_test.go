package experiments

import (
	"context"
	"testing"

	"repro/internal/classify"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestLadderCellsMatchPerRunMeasurement is the per-cell differential for
// the one-pass accuracy experiments: at -quick scale, every (benchmark,
// rung) result measureLadder returns for fig1, fig2, geometry and sweep
// must equal that of a separate classify.Run at the rung, fed the
// benchmark's stream through sim.ClassifyBatched: one stream per
// configuration, the way the experiments measured before their rungs
// shared a ladder.
func TestLadderCellsMatchPerRunMeasurement(t *testing.T) {
	if testing.Short() {
		t.Skip("functional sweep is slow")
	}
	p := Quick().withDefaults()
	suite := workload.Suite()
	experiments := []struct {
		name  string
		rungs []classify.Rung
	}{
		{"fig1", fullTagRungs(figure1Configs)},
		{"fig2", fig2Rungs()},
		{"geometry", fullTagRungs(geometryConfigs)},
		{"sweep", sweepRungs()},
	}

	// The per-run references, each distinct (benchmark, rung) once.
	type cell struct {
		bench int
		rung  classify.Rung
	}
	var cells []cell
	seen := map[cell]bool{}
	for _, e := range experiments {
		for bi := range suite {
			for _, r := range e.rungs {
				if c := (cell{bi, r}); !seen[c] {
					seen[c] = true
					cells = append(cells, c)
				}
			}
		}
	}
	refs, err := runner.MapN(context.Background(), len(cells), nil,
		func(_ context.Context, i int) (rungResult, error) {
			c := cells[i]
			run, err := classify.NewRun(c.rung.Cache, c.rung.TagBits)
			if err != nil {
				return rungResult{}, err
			}
			src := trace.NewStreamBatcher(trace.NewLimit(suite[c.bench].MemStream(p.Seed), p.MemAccesses))
			sim.ClassifyBatched(run, src, 0)
			return rungResult{Acc: run.Acc, Stats: run.CC.Cache().Stats()}, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[cell]rungResult, len(cells))
	for i, c := range cells {
		want[c] = refs[i]
	}

	for _, e := range experiments {
		got, err := measureLadder(e.name, e.rungs, p)
		if err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
		for bi, b := range suite {
			for k, r := range e.rungs {
				if w := want[cell{bi, r}]; got[bi][k] != w {
					t.Errorf("%s/%s rung %d (%+v): ladder %+v, per-run %+v", e.name, b.Name, k, r, got[bi][k], w)
				}
			}
		}
	}
}
