package experiments

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/runner"
	"repro/internal/stats"
)

// Artifact is one entry in the experiment registry: a canonical slug, the
// selection names that reach it (some artifacts render several of the
// paper's figures — fig3 also produces table1 — so they answer to several
// names), a type-erased runner, and the artifact's own report. The
// registry is the shared source of truth for "what experiments exist":
// cmd/paperbench runs and reports every selected row through it, and the
// mctd sweep endpoint both validates and executes through it, so the two
// front ends can never drift apart. Adding an experiment means adding one
// row here.
type Artifact struct {
	// Slug is the canonical name, also the memoization-cache slug.
	Slug string
	// Names are the selection names that run this artifact (Slug included).
	Names []string
	// Run executes the artifact at the given scale. The result is the
	// artifact's ordinary typed result value (Fig1Result etc.), returned as
	// any so callers that only encode it — the service, the cache — need no
	// per-artifact types.
	Run func(Params) (any, error)
	// Memo runs the artifact through the result cache c (nil = disabled)
	// under its typed result, and returns the report of that result. hit
	// reports a cache replay. The result is always the JSON round trip of
	// the computed value (runner.Memo), so the report is byte-identical
	// whether it was computed or replayed. Failed runs are not cached.
	Memo func(c *runner.Cache, p Params) (report func(Out), hit bool, err error)
}

// Out receives an artifact's report. Tables go to stdout and, when the
// front end keeps CSVs, to <name>.csv; lines go to stdout only.
type Out interface {
	// Wants reports whether the selection asked for the named block; an
	// artifact answering to several names prints only the selected ones.
	Wants(name string) bool
	Table(name string, t *stats.Table)
	Println(a ...any)
	Printf(format string, a ...any)
}

// newArtifact builds a registry row from a typed runner and its report.
func newArtifact[T any](slug string, names []string, run func(Params) (T, error), report func(T, Out)) Artifact {
	return Artifact{
		Slug:  slug,
		Names: names,
		Run:   func(p Params) (any, error) { return run(p) },
		Memo: func(c *runner.Cache, p Params) (func(Out), bool, error) {
			v, hit, err := runner.Memo(c, slug, p, func() (T, error) { return run(p) })
			if err != nil {
				return nil, false, err
			}
			return func(o Out) { report(v, o) }, hit, nil
		},
	}
}

// SelectAll is the selection name that runs every artifact.
const SelectAll = "all"

// artifacts lists every runnable artifact in paperbench's reporting order.
// Each report prints the artifact's tables and then its reading against
// the paper ("paper: ..." / "here : ...").
var artifacts = []Artifact{
	newArtifact("fig1", []string{"fig1"}, Figure1, func(r Fig1Result, o Out) {
		o.Table("fig1", r.Table())
		o.Printf("paper: 88%%/86%% conflict/capacity on 16KB DM, 91%%/92%% on 64KB DM; ≥87%% of misses overall\n")
		o.Printf("here : %.0f%%/%.0f%% on 16KB DM, %.0f%%/%.0f%% on 64KB DM\n",
			100*r.MeanConflictAcc["16KB-DM"], 100*r.MeanCapacityAcc["16KB-DM"],
			100*r.MeanConflictAcc["64KB-DM"], 100*r.MeanCapacityAcc["64KB-DM"])
	}),
	newArtifact("fig2", []string{"fig2"}, Figure2, func(r Fig2Result, o Out) {
		o.Table("fig2", r.Table())
		o.Println("paper: 8-12 bits ≈ full-tag accuracy; 1 bit excludes ~half of capacity misses cheaply")
	}),
	newArtifact("fig3", []string{"fig3", "table1"}, Figure3, func(r Fig3Result, o Out) {
		if o.Wants("fig3") {
			o.Table("fig3", r.Table())
			o.Println(r.Chart("geomean speedup over no victim cache (| marks 1.0)", 0))
			o.Printf("paper: combined filtering ≈ +3%% over the traditional victim cache; here %+.1f%%\n",
				100*(r.CombinedOverTraditional()-1))
		}
		if o.Wants("table1") {
			o.Table("table1", r.Table1Text())
			o.Println("paper Table 1: fills 6.6 -> 2.6 (more than halved), swaps 1.7 -> 0.1, total HR -0.3pp")
		}
	}),
	newArtifact("fig4", []string{"fig4"}, Figure4, func(r Fig4Result, o Out) {
		o.Table("fig4", r.Table())
		o.Printf("paper: ~+25%% prefetch accuracy from filtering, little speedup by itself; here %+.0f%% accuracy\n",
			100*r.AccuracyGain())
	}),
	newArtifact("fig5", []string{"fig5"}, Figure5, func(r Fig5Result, o Out) {
		o.Table("fig5", r.Table())
		hr, sp := r.CapacityBeatsMAT()
		o.Printf("paper: the simple capacity filter beats the MAT on hit rate and speedup; here hitrate=%v speedup=%v\n", hr, sp)
	}),
	newArtifact("pseudo", []string{"pseudo"}, PseudoAssoc, func(r PseudoResult, o Out) {
		o.Table("pseudo", r.Table())
		base, mct := r.MissRates()
		o.Printf("paper: MCT policy +1.5%% over base PA, within 0.9%% of true 2-way, miss rate 10.22%%->9.83%%\n")
		o.Printf("here : %+.1f%% over base PA, %.1f%% vs 2-way, miss rate %.2f%%->%.2f%%\n",
			100*(r.MCTOverBase()-1), 100*(r.MCTVsTwoWay()-1), 100*base, 100*mct)
	}),
	newArtifact("fig6", []string{"fig6", "fig7"}, Figure6, func(r Fig6Result, o Out) {
		if o.Wants("fig6") {
			o.Table("fig6", r.Table())
			o.Println(r.Chart("geomean speedup over no buffer (| marks 1.0)", 0))
			sn, s := r.BestSingleGain()
			cn, c := r.BestComboGain()
			o.Printf("paper: best combo ≈ 2x the best single policy's gain (~16%% better), ~30%% miss-rate cut\n")
			o.Printf("here : best single %s %+.1f%%, best combo %s %+.1f%%, miss-rate cut %.0f%%\n",
				sn, 100*(s-1), cn, 100*(c-1), 100*r.MissRateReduction())
		}
		if o.Wants("fig7") {
			o.Table("fig7", r.Figure7Table())
		}
	}),
	newArtifact("replacement", []string{"replacement"}, Replacement, func(r ReplacementResult, o Out) {
		o.Table("replacement", r.Table())
		o.Println("paper Sec 5.6: modest on this suite by the paper's own admission; the bias must not hurt")
	}),
	newArtifact("remap", []string{"remap"}, Remap, func(r RemapResult, o Out) {
		o.Table("remap", r.Table())
		ra, rc, ma, mc := r.RemapEfficiency()
		o.Printf("paper Sec 5.6: count only conflict misses to avoid pointless remaps\n")
		o.Printf("here : all-miss counting %d remaps (mean miss %.2f%%); conflict-only %d remaps (mean miss %.2f%%)\n",
			ra, 100*ma, rc, 100*mc)
	}),
	newArtifact("depth", []string{"depth"}, MCTDepth, func(r DepthResult, o Out) {
		o.Table("depth", r.Table())
		o.Println("extension the paper set aside: deeper eviction history buys conflict accuracy")
		o.Println("but loses capacity accuracy to false matches — the one-deep table is the sweet spot")
	}),
	newArtifact("geometry", []string{"geometry"}, GeometryStudy, func(r GeometryResult, o Out) {
		o.Table("geometry", r.Table())
		o.Printf("beyond the paper: the MCT assumes modulo indexing; under conflict-destroying defenses\n")
		o.Printf("here : suite conflict accuracy %.1f%% (modulo) -> %.1f%% (skewed) -> %.1f%% (random)\n",
			100*r.MeanConflictAcc["modulo"], 100*r.MeanConflictAcc["skewed"], 100*r.MeanConflictAcc["random"])
	}),
	newArtifact("smt", []string{"smt"}, SMTStudy, func(r SMTResult, o Out) {
		o.Table("smt", r.Table())
		o.Printf("paper Sec 5.6: the techniques \"apply to an even greater extent with multithreaded caches\"\n")
		o.Printf("here : AMB gains %+.1f%% on 2-thread shared caches vs %+.1f%% on solo runs\n",
			100*(r.PairGain()-1), 100*(r.SingleGain-1))
	}),
	newArtifact("icache", []string{"icache"}, ICacheStudy, func(r ICacheResult, o Out) {
		o.Table("icache", r.Table())
		o.Printf("paper: techniques \"should, in general, also apply to the instruction cache\"\n")
		o.Printf("here : bare 8KB L1I costs %.1f%%; a 32-entry filtered victim buffer recovers %+.1f%%\n",
			100*(1-r.ICacheCost()), 100*(r.VictimGain()-1))
	}),
	newArtifact("sweep", []string{"sweep"}, ConfigSweep, func(r SweepResult, o Out) {
		o.Table("sweep", r.Table())
		o.Printf("generalization: worst-case overall accuracy %.1f%% across the grid;\n", 100*r.MinOverallAcc())
		o.Println("conflict share collapses with associativity, which is why the paper")
		o.Println("points at multithreaded and OLTP workloads rather than bigger caches")
	}),
	newArtifact("cosched", []string{"cosched"}, CoSchedule, func(r CoScheduleResult, o Out) {
		o.Table("cosched", r.Table())
		o.Println("paper Sec 5.6: jobs producing inordinate conflict misses together are bad co-schedule candidates")
	}),
	newArtifact("mrc", []string{"mrc"}, MRCStudy, func(r MRCResult, o Out) {
		o.Table("mrc", r.Table())
		o.Printf("extension: SHARDS-style sampling at rate 0.01 stays within %.3f mean / %.3f worst\n",
			r.MeanMAE["0.01"], r.WorstErr["0.01"])
		o.Println("absolute miss-ratio error of exact stack distances (what /v1/mrc serves)")
	}),
}

// Artifacts returns the registry in reporting order. The slice is shared;
// callers must not mutate it.
func Artifacts() []Artifact { return artifacts }

// SelectionNames returns every valid selection name (SelectAll plus all
// artifact names), sorted.
func SelectionNames() []string {
	out := []string{SelectAll}
	for _, a := range artifacts {
		out = append(out, a.Names...)
	}
	sort.Strings(out)
	return out
}

// ValidateSelection checks every requested name against the registry and
// reports the first unknown one along with the full valid list — the
// shared guard that keeps both paperbench and the service's sweep
// endpoint from silently running nothing on a typo.
func ValidateSelection(names []string) error {
	valid := SelectionNames()
	for _, n := range names {
		if !slices.Contains(valid, n) {
			return fmt.Errorf("unknown experiment %q (valid: %s)", n, strings.Join(valid, ", "))
		}
	}
	return nil
}

// Select resolves a set of selection names to the artifacts they run, in
// registry order and without duplicates (fig3 and table1 select the same
// artifact once). It validates first, so an unknown name errors rather
// than selecting nothing.
func Select(names []string) ([]Artifact, error) {
	if err := ValidateSelection(names); err != nil {
		return nil, err
	}
	wanted := map[string]bool{}
	for _, n := range names {
		wanted[n] = true
	}
	var out []Artifact
	for _, a := range artifacts {
		hit := wanted[SelectAll]
		for _, n := range a.Names {
			hit = hit || wanted[n]
		}
		if hit {
			out = append(out, a)
		}
	}
	return out, nil
}

// RunArtifact runs the artifact with the given canonical slug.
func RunArtifact(slug string, p Params) (any, error) {
	for _, a := range artifacts {
		if a.Slug == slug {
			return a.Run(p)
		}
	}
	return nil, fmt.Errorf("unknown experiment %q (valid: %s)", slug, strings.Join(SelectionNames(), ", "))
}
