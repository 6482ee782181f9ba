package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/experiments"
	"repro/internal/runner"
)

// maxSweepCells bounds the artifacts × seeds expansion so a typo'd seed
// list cannot fan a single request into millions of cells.
const maxSweepCells = 10_000

// SweepSpec is the body of POST /v1/sweep: which experiments to run at
// what scale. Validation is shared with cmd/paperbench's -experiment
// flag (experiments.ValidateSelection), so the service and the CLI
// accept exactly the same selections and reject typos with the same
// valid-name listing.
type SweepSpec struct {
	// Experiments selects artifacts by name ("all", "fig2", "table1", ...).
	Experiments []string `json:"experiments"`
	// Quick uses the reduced test-scale parameters.
	Quick bool `json:"quick,omitempty"`
	// Accesses/Instructions/Seed override individual parameters when
	// nonzero.
	Accesses     uint64 `json:"accesses,omitempty"`
	Instructions uint64 `json:"instructions,omitempty"`
	Seed         uint64 `json:"seed,omitempty"`
	// Seeds, when set, expands the sweep into one cell per (artifact,
	// seed) pair — the fleet-scale shape: each cell is independently
	// memoized and ring-routed. Empty keeps the one-cell-per-artifact
	// behavior (and the exact pre-Seeds output bytes).
	Seeds []uint64 `json:"seeds,omitempty"`

	// Resolved by prepare: the run parameters and the selected artifacts.
	params experiments.Params
	arts   []experiments.Artifact
}

// prepare validates the selection and resolves the run parameters.
func (sp *SweepSpec) prepare(*Service) error {
	if len(sp.Experiments) == 0 {
		sp.Experiments = []string{experiments.SelectAll}
	}
	if err := experiments.ValidateSelection(sp.Experiments); err != nil {
		return fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	arts, err := experiments.Select(sp.Experiments)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	if cells := len(arts) * max(1, len(sp.Seeds)); cells > maxSweepCells {
		return fmt.Errorf("%w: sweep expands to %d cells (limit %d)", ErrBadRequest, cells, maxSweepCells)
	}
	p := experiments.Default()
	if sp.Quick {
		p = experiments.Quick()
	}
	if sp.Accesses != 0 {
		p.MemAccesses = sp.Accesses
	}
	if sp.Instructions != 0 {
		p.Instructions = sp.Instructions
	}
	if sp.Seed != 0 {
		p.Seed = sp.Seed
	}
	sp.params, sp.arts = p, arts
	return nil
}

// sweepLine is one NDJSON record of a sweep response: the artifact's
// result verbatim (the memo cache's raw JSON, so cold and warm runs are
// byte-identical) or its error. Cell names the (artifact, seed) cell in
// seeded sweeps and is absent otherwise, keeping legacy output bytes
// unchanged.
type sweepLine struct {
	Experiment string          `json:"experiment"`
	Cell       string          `json:"cell,omitempty"`
	Result     json.RawMessage `json:"result,omitempty"`
	Error      string          `json:"error,omitempty"`
}

// sweepSummary is the trailing NDJSON record.
type sweepSummary struct {
	Experiments int `json:"experiments"`
	OK          int `json:"ok"`
	Failed      int `json:"failed"`
}

// sweepCellDef is one unit of sweep work: an artifact at concrete
// parameters, with the ID that names it in output.
type sweepCellDef struct {
	art    experiments.Artifact
	p      experiments.Params
	id     string // slug, or slug@s<seed> in seeded sweeps
	seeded bool
}

// sweepCells expands (params, artifacts, seeds) into the sweep's cell
// list. No seeds: one cell per artifact at p, IDs are bare slugs —
// exactly the historical shape. Seeds: artifacts × seeds cells, each
// with p.Seed overridden, in artifact-major order so output stays
// grouped by experiment.
func sweepCells(p experiments.Params, arts []experiments.Artifact, seeds []uint64) []sweepCellDef {
	if len(seeds) == 0 {
		cells := make([]sweepCellDef, len(arts))
		for i, art := range arts {
			cells[i] = sweepCellDef{art: art, p: p, id: art.Slug}
		}
		return cells
	}
	cells := make([]sweepCellDef, 0, len(arts)*len(seeds))
	for _, art := range arts {
		for _, seed := range seeds {
			ps := p
			ps.Seed = seed
			cells = append(cells, sweepCellDef{art: art, p: ps, id: fmt.Sprintf("%s@s%d", art.Slug, seed), seeded: true})
		}
	}
	return cells
}

// runSweep executes the sweep's cells through the supervised worker
// pool, each memoized under the same (slug, Params) key cmd/paperbench
// uses — a sweep the CLI already computed replays from cache, and vice
// versa. A sweep killed mid-flight and resubmitted recomputes only the
// unfinished cells because the finished ones replay through lookupCell
// from runner.Memo. Clustered, each cell routes through memoCell —
// remote-owned cells forward to their ring owner — and the fan-out
// widens beyond local compute capacity so forwards overlap while the
// compute gate keeps local work bounded. Returns the NDJSON lines in
// cell order, cache-hit counts, and the pool's error (a MultiError
// under partial results).
func (s *Service) runSweep(ctx context.Context, p experiments.Params, arts []experiments.Artifact, seeds []uint64) ([]sweepLine, uint64, uint64, error) {
	cells := sweepCells(p, arts, seeds)

	// Job-scoped supervision: the options ride the context into the pool,
	// so everything this job fans out inherits the policy without global
	// state (two concurrent sweeps could run different policies).
	opts := s.supervision()
	if s.cluster.Enabled() {
		// Widen the coordinator fan-out past local compute capacity:
		// forwards are network-bound and must overlap; actual local
		// compute is bounded by the gate (compSem), not the pool width.
		fan := s.computeWorkers() + 32
		if fan > len(cells) {
			fan = len(cells)
		}
		if fan < 1 {
			fan = 1
		}
		opts = append(opts, runner.Workers(fan))
	}
	jobCtx := runner.WithOptions(ctx, append(opts, runner.PartialResults())...)

	tasks := make([]runner.Task[memoResult], len(cells))
	for i, def := range cells {
		c := s.experimentCell(def.id, def.art.Slug, def.p)
		tasks[i] = runner.NewTask(c.label, func(tctx context.Context) (memoResult, error) {
			raw, hit, err := s.lookupCell(tctx, c)
			if err != nil {
				return memoResult{}, err
			}
			return memoResult{raw, hit}, nil
		})
	}
	results, err := runner.Map(jobCtx, tasks)

	failed := map[int]error{}
	var me *runner.MultiError
	if errors.As(err, &me) {
		for _, f := range me.Failures {
			failed[f.Index] = f
		}
	} else if err != nil {
		// Whole-pool failure (e.g. the request was canceled before partial
		// results could be collected): every cell shares the error.
		for i := range cells {
			failed[i] = err
		}
	}
	lines := make([]sweepLine, len(cells))
	var hits, misses uint64
	for i, cell := range cells {
		line := sweepLine{Experiment: cell.art.Slug}
		if cell.seeded {
			line.Cell = cell.id
		}
		if ferr, ok := failed[i]; ok {
			line.Error = ferr.Error()
			lines[i] = line
			continue
		}
		if i < len(results) {
			line.Result = results[i].raw
			lines[i] = line
			if results[i].hit {
				hits++
			} else {
				misses++
			}
		}
	}
	return lines, hits, misses, err
}

// sweep runs a normalized sweep and renders its NDJSON body: one record
// per cell in cell order, then the summary. Failed cells are error
// records, so a partially failed sweep still has a body; the error is
// the pool's (a MultiError under partial results).
func (s *Service) sweep(ctx context.Context, sp *SweepSpec) (outcome, error) {
	lines, hits, misses, runErr := s.runSweep(ctx, sp.params, sp.arts, sp.Seeds)
	var buf bytes.Buffer
	nw := &ndjsonWriter{w: &buf}
	ok := 0
	for _, line := range lines {
		if line.Error == "" {
			ok++
		}
		if err := nw.emit(line); err != nil {
			return outcome{}, err
		}
	}
	if err := nw.emit(struct {
		Summary sweepSummary `json:"summary"`
	}{sweepSummary{Experiments: len(lines), OK: ok, Failed: len(lines) - ok}}); err != nil {
		return outcome{}, err
	}
	out := outcome{body: buf.Bytes(), stats: stats{Records: uint64(len(lines)), Emitted: nw.emitted}, hits: hits, misses: misses}
	return out, runErr
}
