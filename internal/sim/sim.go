// Package sim wires a synthetic benchmark, a functional cache system, the
// timing hierarchy, and the out-of-order CPU into one measured run, and
// provides the parallel sweep driver the experiments are built on.
package sim

import (
	"context"
	"fmt"

	"repro/internal/assist"
	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/hier"
	"repro/internal/runner"
	"repro/internal/workload"
)

// L1Config is the paper's default first-level data cache: 16KB
// direct-mapped, 64-byte lines.
func L1Config() cache.Config {
	return cache.Config{Name: "L1D", Size: 16 * 1024, LineSize: 64, Assoc: 1}
}

// Options parameterizes one run.
type Options struct {
	// Instructions is the measured instruction count (the paper measures
	// 300M; experiments here default to far fewer — see DESIGN.md).
	Instructions uint64
	// Seed feeds the workload generator.
	Seed uint64
	// Hier is the timing configuration; zero value means DefaultConfig.
	Hier hier.Config
	// CPU is the pipeline configuration; zero value means DefaultConfig.
	CPU cpu.Config
	// ICache, when non-nil, builds an instruction-side system attached to
	// the hierarchy (nil = the perfect I-cache every data-side experiment
	// assumes, matching the paper's data-cache focus).
	ICache SystemFactory
}

// withDefaults fills zero-valued fields.
func (o Options) withDefaults() Options {
	if o.Instructions == 0 {
		o.Instructions = 1_000_000
	}
	if o.Seed == 0 {
		o.Seed = workload.DefaultSeed
	}
	if o.Hier.MSHRs == 0 {
		o.Hier = hier.DefaultConfig()
	}
	if o.CPU.ROBSize == 0 {
		o.CPU = cpu.DefaultConfig()
	}
	return o
}

// Result is the complete outcome of one (benchmark, system) run.
type Result struct {
	Bench  string
	System string
	CPU    cpu.Metrics
	Sys    assist.Stats
	Hier   hier.Stats
	// ISys and IFetch are filled when an instruction cache was attached.
	ISys   assist.Stats
	IFetch hier.IStats
}

// IPC returns the run's instructions per cycle.
func (r Result) IPC() float64 { return r.CPU.IPC() }

// Run simulates one benchmark on one system configuration.
func Run(b *workload.Benchmark, sys assist.System, opt Options) Result {
	opt = opt.withDefaults()
	h := hier.MustNew(opt.Hier, sys)
	var isys assist.System
	if opt.ICache != nil {
		isys = opt.ICache()
		h.AttachI(isys)
	}
	c := cpu.MustNew(opt.CPU, h)
	stream := b.Stream(opt.Seed)
	m := c.Run(stream, opt.Instructions)
	r := Result{
		Bench:  b.Name,
		System: sys.Name(),
		CPU:    m,
		Sys:    sys.Stats(),
		Hier:   h.Stats(),
	}
	if isys != nil {
		r.ISys = isys.Stats()
		r.IFetch = h.IFetchStats()
	}
	return r
}

// SystemFactory builds a fresh functional system for one run. Factories
// let a sweep instantiate the same policy independently per benchmark.
type SystemFactory func() assist.System

// Sweep runs every benchmark against every system factory on the shared
// runner pool and returns results indexed [benchmark][system] in the given
// orders. Each run is independent and deterministic, and the runner merges
// by task index, so parallelism does not perturb results. A panic in any
// single run (a misconfigured system, say) is isolated by the pool and
// returned as an error naming the offending benchmark×system cell; under
// the runner's partial-results mode the error is a *runner.MultiError
// listing every failed cell.
func Sweep(benches []*workload.Benchmark, systems []SystemFactory, opt Options) ([][]Result, error) {
	opt = opt.withDefaults()
	ns := len(systems)
	flat, err := runner.Map(context.Background(), sweepTasks(benches, systems, opt))
	if err != nil {
		return nil, err
	}
	out := make([][]Result, len(benches))
	for bi := range out {
		out[bi] = flat[bi*ns : (bi+1)*ns : (bi+1)*ns]
	}
	return out, nil
}

// sweepTasks flattens the benchmark×system grid row-major into pool tasks.
func sweepTasks(benches []*workload.Benchmark, systems []SystemFactory, opt Options) []runner.Task[Result] {
	tasks := make([]runner.Task[Result], 0, len(benches)*len(systems))
	for _, b := range benches {
		b := b
		for si, f := range systems {
			f := f
			tasks = append(tasks, runner.NewTask(
				fmt.Sprintf("sim/%s/sys%d", b.Name, si),
				func(context.Context) (Result, error) { return Run(b, f(), opt), nil }))
		}
	}
	return tasks
}
