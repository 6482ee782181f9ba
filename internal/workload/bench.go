package workload

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/rng"
	"repro/internal/trace"
)

// Phase is a weighted kernel within a benchmark: the scheduler picks each
// burst's kernel with probability proportional to Weight, so a benchmark's
// character is the weighted superposition of its kernels.
type Phase struct {
	Kernel Kernel
	Weight int
}

// Benchmark is a named synthetic program: a kernel mix plus descriptive
// metadata. Construct streams with Stream; a Benchmark itself is immutable
// and safe to share (kernels are instantiated fresh per stream).
type Benchmark struct {
	// Name is the SPEC95 benchmark the model stands in for.
	Name string
	// FP marks the floating-point half of the suite.
	FP bool
	// Description summarizes the access-pattern rationale.
	Description string
	// Build constructs the benchmark's kernels with fresh state. It is
	// called once per stream so concurrent streams never share cursors.
	Build func() []Phase
	// CodeBodies is the per-kernel code footprint in loop-body copies
	// (see kernelBase); 0/1 means a single tight loop body. Large
	// irregular codes (gcc, vortex) set tens of bodies so an instruction
	// cache sees realistic pressure.
	CodeBodies int
}

// Stream returns a fresh infinite instruction stream for the benchmark,
// deterministic in seed. Wrap with trace.NewLimit to bound it.
func (b *Benchmark) Stream(seed uint64) trace.Stream { return b.stream(seed, false) }

// MemStream returns the benchmark's loads and stores alone: exactly the
// records trace.NewMemOnly(b.Stream(seed)) yields, every field equal, but
// without building the ALU ops and branches between them. Consumers that
// replay only the access stream (classification, miss-ratio curves,
// functional hit-rate replays) should use it. It is a trace.AccessStream:
// ReadAccesses fills address and store columns straight from the
// generator's burst buffer (see trace.StreamAccesses).
func (b *Benchmark) MemStream(seed uint64) trace.AccessStream {
	return memStream{b.stream(seed, true)}
}

func (b *Benchmark) stream(seed uint64, memOnly bool) *synthStream {
	phases := b.Build()
	if len(phases) == 0 {
		panic(fmt.Sprintf("workload: benchmark %s has no phases", b.Name))
	}
	total := 0
	for _, p := range phases {
		if p.Weight <= 0 {
			panic(fmt.Sprintf("workload: benchmark %s: phase %s has non-positive weight", b.Name, p.Kernel.Name()))
		}
		total += p.Weight
	}
	if b.CodeBodies > 1 {
		for _, p := range phases {
			if setter, ok := p.Kernel.(interface{ SetBodies(int) }); ok {
				setter.SetBodies(b.CodeBodies)
			}
		}
	}
	src := rng.New(seed ^ hashName(b.Name))
	return &synthStream{
		bench:       b,
		phases:      phases,
		totalWeight: total,
		em:          newEmitter(src, memOnly),
	}
}

// phaseRun is how many consecutive bursts a scheduled kernel executes
// before the scheduler redraws. Real programs run in phases: while a
// miss-heavy loop executes, there is little unrelated work for the
// out-of-order window to hide its latency behind. Burst-granularity
// interleaving would overstate cross-kernel parallelism and make the
// machine implausibly latency-tolerant.
const phaseRun = 12

// synthStream refills an instruction buffer one kernel burst at a time,
// choosing the kernel by weighted random draw and keeping it scheduled for
// phaseRun bursts.
type synthStream struct {
	bench       *Benchmark
	phases      []Phase
	totalWeight int
	em          *Emitter
	pos         int

	current   *Phase
	burstLeft int
}

// Next implements trace.Stream. Synthetic streams never end.
func (s *synthStream) Next(out *trace.Instr) bool {
	for s.pos >= len(s.em.buf) {
		s.em.buf = s.em.buf[:0]
		s.pos = 0
		s.refill()
	}
	*out = s.em.buf[s.pos]
	s.pos++
	return true
}

// memStream is a memory-only synthStream. Only it offers the column
// read: a full stream's buffer also holds the instructions between the
// accesses.
type memStream struct{ *synthStream }

// ReadAccesses implements trace.AccessStream, copying each burst's
// addresses and store flags out of the refill buffer.
func (s memStream) ReadAccesses(addrs []mem.Addr, stores []bool) int {
	stores = stores[:len(addrs)]
	n := 0
	for n < len(addrs) {
		if s.pos >= len(s.em.buf) {
			s.em.buf = s.em.buf[:0]
			s.pos = 0
			s.refill()
			continue
		}
		burst := s.em.buf[s.pos:]
		if left := len(addrs) - n; len(burst) > left {
			burst = burst[:left]
		}
		for i := range burst {
			addrs[n+i] = burst[i].Addr
			stores[n+i] = burst[i].Op == trace.Store
		}
		n += len(burst)
		s.pos += len(burst)
	}
	return n
}

// Err implements trace.AccessStream; synthetic streams never fail.
func (memStream) Err() error { return nil }

func (s *synthStream) refill() {
	if s.current == nil || s.burstLeft <= 0 {
		pick := s.em.Rand().Intn(s.totalWeight)
		s.current = &s.phases[len(s.phases)-1]
		for i := range s.phases {
			pick -= s.phases[i].Weight
			if pick < 0 {
				s.current = &s.phases[i]
				break
			}
		}
		s.burstLeft = phaseRun
	}
	s.burstLeft--
	s.current.Kernel.Burst(s.em)
}

// hashName folds a benchmark name into seed material (FNV-1a) so two
// benchmarks given the same user seed still draw independent streams.
func hashName(name string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return h
}

// DefaultSeed is the seed used by experiments unless overridden; fixing it
// repo-wide makes every number in EXPERIMENTS.md reproducible exactly.
const DefaultSeed uint64 = 19991116 // MICRO-32's opening date
