// Package experiments reproduces, one function per artifact, every table
// and figure in the paper's evaluation: Figures 1–7, Table 1, and the
// Section 5.4 pseudo-associative results, plus the studies beyond it.
// Each function returns the raw series, and its result type renders a
// formatted text table. The registry (Artifacts) binds each function to
// its report; cmd/paperbench and the mctd sweep endpoint run artifacts
// only through it, and bench_test.go reports their headline metrics.
package experiments

import (
	"repro/internal/cache"
	"repro/internal/workload"
)

// Params scales an experiment. The paper measures 300M instructions per
// benchmark on SPEC95 reference inputs; the synthetic workloads are
// stationary, so far shorter runs give stable statistics (see DESIGN.md).
type Params struct {
	// MemAccesses drives the functional experiments (Figures 1 and 2).
	MemAccesses uint64
	// Instructions drives the timing experiments (everything else).
	Instructions uint64
	// Seed feeds the workload generators.
	Seed uint64
}

// Quick returns parameters sized for unit tests and testing.B benches.
func Quick() Params {
	return Params{MemAccesses: 150_000, Instructions: 150_000, Seed: workload.DefaultSeed}
}

// Default returns the standard reproduction scale used by cmd/paperbench
// and EXPERIMENTS.md.
func Default() Params {
	return Params{MemAccesses: 600_000, Instructions: 1_000_000, Seed: workload.DefaultSeed}
}

// withDefaults fills zero fields from Default.
func (p Params) withDefaults() Params {
	d := Default()
	if p.MemAccesses == 0 {
		p.MemAccesses = d.MemAccesses
	}
	if p.Instructions == 0 {
		p.Instructions = d.Instructions
	}
	if p.Seed == 0 {
		p.Seed = d.Seed
	}
	return p
}

// namedConfig is one cache configuration of a study, with its label.
type namedConfig struct {
	Name string
	Cfg  cache.Config
}

// The four cache configurations of Figure 1.
var figure1Configs = []namedConfig{
	{"16KB-DM", cache.Config{Name: "L1D", Size: 16 << 10, LineSize: 64, Assoc: 1}},
	{"16KB-2way", cache.Config{Name: "L1D", Size: 16 << 10, LineSize: 64, Assoc: 2}},
	{"64KB-DM", cache.Config{Name: "L1D", Size: 64 << 10, LineSize: 64, Assoc: 1}},
	{"64KB-2way", cache.Config{Name: "L1D", Size: 64 << 10, LineSize: 64, Assoc: 2}},
}

// TagBitsFull marks the full-tag MCT configuration in sweeps.
const TagBitsFull = 0
