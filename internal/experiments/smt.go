package experiments

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/amb"
	"repro/internal/assist"
	"repro/internal/cpu"
	"repro/internal/hier"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// SMTPair is one two-thread co-run measured with and without the Adaptive
// Miss Buffer.
type SMTPair struct {
	A, B string
	// BaseIPC and AMBIPC are the pair's combined instructions/cycle with a
	// bare L1 and with an 8-entry VictPref AMB.
	BaseIPC float64
	AMBIPC  float64
	// ConflictShareBase is the fraction of the bare shared cache's misses
	// classified conflict (the paper predicts sharing raises it).
	ConflictShareBase float64
}

// Speedup returns the AMB's gain on the pair.
func (p SMTPair) Speedup() float64 {
	if p.BaseIPC == 0 {
		return 0
	}
	return p.AMBIPC / p.BaseIPC
}

// SMTResult carries the Section-5.6 multithreaded timing study.
type SMTResult struct {
	Pairs []SMTPair
	// SingleGain is the geometric-mean AMB gain of the same benchmarks run
	// one at a time on the same core — the baseline for "applies to an
	// even greater extent with multithreaded caches".
	SingleGain float64
	// SingleConflictShare is the mean conflict share of the solo runs.
	SingleConflictShare float64
}

// PairGain returns the geometric-mean AMB gain across the co-runs.
func (r SMTResult) PairGain() float64 {
	xs := make([]float64, 0, len(r.Pairs))
	for _, p := range r.Pairs {
		xs = append(xs, p.Speedup())
	}
	return stats.GeoMean(xs)
}

// MeanPairConflictShare returns the mean conflict share across co-runs.
func (r SMTResult) MeanPairConflictShare() float64 {
	xs := make([]float64, 0, len(r.Pairs))
	for _, p := range r.Pairs {
		xs = append(xs, p.ConflictShareBase)
	}
	return stats.Mean(xs)
}

// smtPairs is the co-run population: conflict-light and conflict-heavy
// partners mixed, as an SMT scheduler would see.
var smtPairs = [][2]string{
	{"gcc", "swim"},
	{"li", "tomcatv"},
	{"compress", "turb3d"},
	{"vortex", "wave5"},
	{"gcc", "li"},
	{"swim", "mgrid"},
}

// SMTStudy measures the paper's Section-5.6 multithreading claim with
// timing: threads dynamically sharing the L1 raise the conflict share of
// misses, and the MCT-driven Adaptive Miss Buffer gains more on the
// shared cache than it does on the same programs run alone.
func SMTStudy(p Params) (SMTResult, error) {
	p = p.withDefaults()
	cfg := sim.L1Config()
	perThread := p.Instructions / 2

	// Solo runs (both policies) for every benchmark that appears in a
	// pair. The name set is sorted so both the execution schedule and the
	// mean/geomean aggregation below are deterministic — float reduction
	// is order-sensitive, and map iteration order is not.
	seen := map[string]bool{}
	var names []string
	for _, pr := range smtPairs {
		for _, n := range pr {
			if !seen[n] {
				seen[n] = true
				names = append(names, n)
			}
		}
	}
	sort.Strings(names)

	type solo struct{ Gain, Conf float64 }
	solos, err := runner.MapN(context.Background(), len(names),
		func(i int) string { return "smt/solo/" + names[i] },
		func(_ context.Context, i int) (solo, error) {
			b, ok := workload.ByName(names[i])
			if !ok {
				return solo{}, fmt.Errorf("experiments: smt: unknown benchmark %q", names[i])
			}
			opt := sim.Options{Instructions: perThread, Seed: p.Seed}
			base := sim.Run(b, assist.MustNewBaseline(cfg, TagBitsFull), opt)
			boost := sim.Run(b, amb.MustNew(cfg, TagBitsFull, assist.DefaultEntries, amb.VictPref), opt)
			s := solo{Gain: boost.IPC() / base.IPC()}
			if m := base.Sys.Misses; m > 0 {
				s.Conf = float64(base.Sys.ConflictMisses) / float64(m)
			}
			return s, nil
		})
	if err != nil {
		return SMTResult{}, err
	}

	pairs, err := runner.MapN(context.Background(), len(smtPairs),
		func(i int) string { return "smt/pair/" + smtPairs[i][0] + "+" + smtPairs[i][1] },
		func(_ context.Context, pi int) (SMTPair, error) {
			a, b := smtPairs[pi][0], smtPairs[pi][1]
			baseIPC, confShare := smtRun(a, b, perThread, p.Seed,
				func() assist.System { return assist.MustNewBaseline(cfg, TagBitsFull) })
			ambIPC, _ := smtRun(a, b, perThread, p.Seed,
				func() assist.System { return amb.MustNew(cfg, TagBitsFull, assist.DefaultEntries, amb.VictPref) })
			return SMTPair{A: a, B: b, BaseIPC: baseIPC, AMBIPC: ambIPC, ConflictShareBase: confShare}, nil
		})
	if err != nil {
		return SMTResult{}, err
	}

	gains := make([]float64, len(solos))
	confs := make([]float64, len(solos))
	for i, s := range solos {
		gains[i] = s.Gain
		confs[i] = s.Conf
	}
	return SMTResult{
		Pairs:               pairs,
		SingleGain:          stats.GeoMean(gains),
		SingleConflictShare: stats.Mean(confs),
	}, nil
}

// smtRun executes one two-thread co-run and returns combined IPC and the
// conflict share of the shared system's misses.
func smtRun(a, b string, perThread, seed uint64, factory sim.SystemFactory) (float64, float64) {
	ba, _ := workload.ByName(a)
	bb, _ := workload.ByName(b)
	sys := factory()
	h := hier.MustNew(hier.DefaultConfig(), sys)
	core := cpu.MustNewSMT(cpu.DefaultConfig(), h, 2)
	ms := core.RunThreads([]trace.Stream{
		ba.Stream(seed),
		bb.Stream(seed + 1),
	}, perThread)
	ipc := (float64(ms[0].Instructions) + float64(ms[1].Instructions)) / float64(ms[0].Cycles)
	st := sys.Stats()
	conf := 0.0
	if st.Misses > 0 {
		conf = float64(st.ConflictMisses) / float64(st.Misses)
	}
	return ipc, conf
}

// Table renders the SMT study.
func (r SMTResult) Table() *stats.Table {
	t := stats.NewTable("Sec 5.6: AMB on a shared (2-thread SMT) data cache",
		"pair", "base IPC", "amb IPC", "speedup", "conflict share %")
	for _, p := range r.Pairs {
		t.AddRow(p.A+"+"+p.B,
			fmt.Sprintf("%.3f", p.BaseIPC),
			fmt.Sprintf("%.3f", p.AMBIPC),
			fmt.Sprintf("%.3f", p.Speedup()),
			fmt.Sprintf("%.1f", 100*p.ConflictShareBase))
	}
	t.AddRow("GEOMEAN-2T", "", "", fmt.Sprintf("%.3f", r.PairGain()),
		fmt.Sprintf("%.1f", 100*r.MeanPairConflictShare()))
	t.AddRow("GEOMEAN-1T", "", "", fmt.Sprintf("%.3f", r.SingleGain),
		fmt.Sprintf("%.1f", 100*r.SingleConflictShare))
	return t
}
