package sim

import (
	"testing"

	"repro/internal/assist"
	"repro/internal/victim"
	"repro/internal/workload"
)

func TestL1ConfigMatchesPaper(t *testing.T) {
	cfg := L1Config()
	if cfg.Size != 16*1024 || cfg.LineSize != 64 || cfg.Assoc != 1 {
		t.Errorf("L1 config = %+v; paper uses 16KB DM with 64B lines", cfg)
	}
}

func TestRunProducesMetrics(t *testing.T) {
	b, _ := workload.ByName("gcc")
	r := Run(b, assist.MustNewBaseline(L1Config(), 0), Options{Instructions: 20_000})
	if r.Bench != "gcc" || r.System != "base" {
		t.Errorf("labels = %q %q", r.Bench, r.System)
	}
	if r.CPU.Instructions < 20_000 {
		t.Errorf("retired %d", r.CPU.Instructions)
	}
	if r.IPC() <= 0 || r.IPC() > 8 {
		t.Errorf("IPC = %.3f", r.IPC())
	}
	if r.Sys.Accesses == 0 || r.Hier.Accesses == 0 {
		t.Error("stats not collected")
	}
}

func TestRunDeterministic(t *testing.T) {
	b, _ := workload.ByName("li")
	opt := Options{Instructions: 15_000, Seed: 77}
	r1 := Run(b, assist.MustNewBaseline(L1Config(), 0), opt)
	r2 := Run(b, assist.MustNewBaseline(L1Config(), 0), opt)
	if r1.CPU != r2.CPU || r1.Sys != r2.Sys || r1.Hier != r2.Hier {
		t.Error("identical runs diverged")
	}
}

func TestSweepShape(t *testing.T) {
	benches := workload.Carried()[:3]
	systems := []SystemFactory{
		func() assist.System { return assist.MustNewBaseline(L1Config(), 0) },
		func() assist.System { return victim.MustNew(L1Config(), 0, 8, victim.Traditional) },
	}
	res, err := Sweep(benches, systems, Options{Instructions: 10_000})
	if err != nil {
		t.Fatalf("Sweep: %v", err)
	}
	if len(res) != 3 || len(res[0]) != 2 {
		t.Fatalf("sweep shape = %dx%d", len(res), len(res[0]))
	}
	for bi, row := range res {
		for si, r := range row {
			if r.Bench != benches[bi].Name {
				t.Errorf("[%d][%d] bench = %q", bi, si, r.Bench)
			}
			if r.CPU.Instructions == 0 {
				t.Errorf("[%d][%d] empty run", bi, si)
			}
		}
	}
	if res[0][0].System == res[0][1].System {
		t.Error("system labels not distinct")
	}
}

func TestSweepMatchesSerialRuns(t *testing.T) {
	// Parallel execution must not perturb results.
	b := workload.Carried()[0]
	opt := Options{Instructions: 10_000}
	serial := Run(b, assist.MustNewBaseline(L1Config(), 0), opt)
	par, err := Sweep([]*workload.Benchmark{b}, []SystemFactory{
		func() assist.System { return assist.MustNewBaseline(L1Config(), 0) },
	}, opt)
	if err != nil {
		t.Fatalf("Sweep: %v", err)
	}
	if par[0][0].CPU != serial.CPU {
		t.Error("parallel sweep diverged from serial run")
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Instructions == 0 || o.Seed == 0 || o.Hier.MSHRs == 0 || o.CPU.ROBSize == 0 {
		t.Errorf("defaults not filled: %+v", o)
	}
}
