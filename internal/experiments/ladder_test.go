package experiments

import (
	"context"
	"testing"

	"repro/internal/cache"
	"repro/internal/classify"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/runner"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestLadderCellsMatchPerRunMeasurement is the per-cell differential for
// the one-pass accuracy experiments: at -quick scale, every (benchmark,
// rung) result measureLadder returns for fig1, fig2, geometry, sweep and
// depth must equal that of a separate cellReference run at the rung: one
// stream, cache and MCT per configuration, the way the experiments
// measured before their rungs shared a ladder and its caches.
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
		{"depth", depthRungs()},
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
			return cellReference(suite[c.bench], c.rung, p)
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

// cellReference plays one benchmark through a rung's own cache, MCT and
// oracle in lockstep, one access at a time: core.Attach's one-entry table
// at the rung's tag width, or a core.DeepMCT at its depth. It shares no
// cache, history or read-out with classify.Ladder.
func cellReference(b *workload.Benchmark, rung classify.Rung, p Params) (rungResult, error) {
	cfg := rung.Cache
	l1, err := cache.New(cfg)
	if err != nil {
		return rungResult{}, err
	}
	mct, err := core.Attach(l1, rung.TagBits)
	if err != nil {
		return rungResult{}, err
	}
	var deep *core.DeepMCT
	if rung.Depth > 1 {
		if deep, err = core.NewDeep(core.Config{Sets: cfg.Sets(), TagBits: rung.TagBits}, rung.Depth); err != nil {
			return rungResult{}, err
		}
	}
	oracle, err := classify.NewOracle(cfg)
	if err != nil {
		return rungResult{}, err
	}
	geom := l1.Geometry()
	var acc classify.Accuracy

	s := b.MemStream(p.Seed)
	var in trace.Instr
	for n := uint64(0); n < p.MemAccesses && s.Next(&in); n++ {
		isStore := in.Op == trace.Store
		if deep == nil {
			hit, ev := mct.Access(in.Addr, isStore)
			if kind := oracle.Observe(in.Addr, hit); !hit {
				acc.Record(kind, ev.Class)
			}
			continue
		}
		typ := mem.Load
		if isStore {
			typ = mem.Store
		}
		hit := l1.Access(in.Addr, typ)
		kind := oracle.Observe(in.Addr, hit)
		if hit {
			continue
		}
		set, tag := geom.Set(in.Addr), geom.Tag(in.Addr)
		class := core.Capacity
		if deep.Classify(set, tag) != 0 {
			class = core.Conflict
		}
		acc.Record(kind, class)
		ev := l1.Fill(in.Addr, isStore, class == core.Conflict)
		if ev.Occurred {
			deep.RecordEviction(geom.SetOfLine(ev.Line), geom.TagOfLine(ev.Line))
		}
	}
	return rungResult{Acc: acc, Stats: l1.Stats()}, nil
}

// TestFig2LadderBuildsOneCache pins the sharing the one-pass experiments
// rely on: a ladder over Figure 2's rungs, or the depth study's, builds one
// real cache for all of them.
func TestFig2LadderBuildsOneCache(t *testing.T) {
	for name, rungs := range map[string][]classify.Rung{"fig2": fig2Rungs(), "depth": depthRungs()} {
		l, err := classify.NewLadder(rungs)
		if err != nil {
			t.Fatal(err)
		}
		for k, r := range l.Rungs {
			if r.Cache != l.Rungs[0].Cache {
				t.Errorf("%s rung %d has its own cache", name, k)
			}
		}
	}
}
