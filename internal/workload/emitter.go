// Package workload synthesizes deterministic instruction streams that stand
// in for the paper's SPEC95 suite.
//
// Each named benchmark (tomcatv, swim, gcc, ...) is composed from a small
// library of access-pattern kernels — strided sweeps, aliasing ping-pongs,
// pointer chases, Zipf-skewed hot sets, stack churn — with parameters tuned
// so that the paper's 16KB direct-mapped L1 sees the conflict/capacity miss
// mix the original workload exhibited. The substitution argument is spelled
// out in DESIGN.md: every result in the paper is a function of the miss
// stream's composition, which these generators control directly.
//
// Streams are pure functions of (benchmark, seed): no global state, no
// wall-clock, no math/rand.
package workload

import (
	"repro/internal/mem"
	"repro/internal/rng"
	"repro/internal/trace"
)

// Emitter is the instruction-construction context handed to kernels. It
// allocates destination registers round-robin, advances a per-burst program
// counter (each burst models one loop-body execution, so PCs repeat across
// bursts — giving PC-indexed predictors realistic behavior), and appends to
// the stream's refill buffer.
//
// A memory-only emitter appends only loads and stores. Every other
// instruction still advances the PC and the register allocator and draws
// the same random numbers, so the loads and stores it does append are
// exactly those of the full stream, field for field.
type Emitter struct {
	rng     *rng.Source
	buf     []trace.Instr
	memOnly bool

	pcBase mem.Addr // kernel's code region; burst PCs restart here
	pc     mem.Addr
	reg    uint8 // next destination register
}

const (
	firstAllocReg = 1  // RegZero is hardwired zero
	lastAllocReg  = 62 // leave one scratch register free
	numAllocRegs  = lastAllocReg - firstAllocReg + 1
)

func newEmitter(src *rng.Source, memOnly bool) *Emitter {
	return &Emitter{rng: src, memOnly: memOnly, reg: firstAllocReg}
}

// Rand returns the emitter's deterministic random source; kernels draw all
// randomness from it.
func (e *Emitter) Rand() *rng.Source { return e.rng }

// beginBurst resets the PC to the kernel's code base, modeling re-entry of
// the kernel's loop body.
func (e *Emitter) beginBurst(codeBase mem.Addr) {
	e.pcBase = codeBase
	e.pc = codeBase
}

func (e *Emitter) nextPC() mem.Addr {
	pc := e.pc
	e.pc += 4
	return pc
}

func (e *Emitter) allocReg() uint8 {
	r := e.reg
	e.reg++
	if e.reg > lastAllocReg {
		e.reg = firstAllocReg
	}
	return r
}

// emit appends one instruction.
func (e *Emitter) emit(in trace.Instr) {
	e.buf = append(e.buf, in)
}

// Load emits a load from addr depending on up to two source registers and
// returns the destination register holding the result.
func (e *Emitter) Load(addr mem.Addr, srcs ...uint8) uint8 {
	d := e.allocReg()
	in := trace.Instr{PC: e.nextPC(), Op: trace.Load, Dest: d, Addr: addr}
	setSrcs(&in, srcs)
	e.emit(in)
	return d
}

// Store emits a store to addr whose data depends on up to two registers.
func (e *Emitter) Store(addr mem.Addr, srcs ...uint8) {
	in := trace.Instr{PC: e.nextPC(), Op: trace.Store, Addr: addr}
	setSrcs(&in, srcs)
	e.emit(in)
}

// Int emits a one-cycle integer op and returns its destination register.
func (e *Emitter) Int(srcs ...uint8) uint8 {
	return e.alu(trace.IntOp, srcs)
}

// FP emits a pipelined floating-point op.
func (e *Emitter) FP(srcs ...uint8) uint8 {
	return e.alu(trace.FPOp, srcs)
}

func (e *Emitter) alu(op trace.OpClass, srcs []uint8) uint8 {
	d := e.allocReg()
	pc := e.nextPC()
	if !e.memOnly {
		in := trace.Instr{PC: pc, Op: op, Dest: d}
		setSrcs(&in, srcs)
		e.emit(in)
	}
	return d
}

// LoopBranch emits the backward branch closing a loop body. taken should be
// true except on the final iteration; loop branches are highly predictable,
// like real loop-closing branches.
func (e *Emitter) LoopBranch(taken bool, srcs ...uint8) {
	pc := e.nextPC()
	if !e.memOnly {
		in := trace.Instr{PC: pc, Op: trace.Branch, Taken: taken}
		setSrcs(&in, srcs)
		e.emit(in)
	}
}

// DataBranch emits a data-dependent branch taken with probability p,
// modeling the poorly-predictable control flow of irregular codes. A
// memory-only emitter still draws the outcome, keeping the random sequence
// of the full stream.
func (e *Emitter) DataBranch(p float64, srcs ...uint8) {
	pc := e.nextPC()
	taken := e.rng.Bool(p)
	if !e.memOnly {
		in := trace.Instr{PC: pc, Op: trace.Branch, Taken: taken}
		setSrcs(&in, srcs)
		e.emit(in)
	}
}

// Filler emits n dependence-chained ALU ops, fp selecting the FP or integer
// pipeline — the compute padding between memory references that sets each
// benchmark's memory intensity. It returns the last op's destination (feed
// when n is 0). A memory-only emitter skips the ops in O(1): it advances
// the PC by 4n and the allocator by n and returns the register the n-th
// allocation would have.
func (e *Emitter) Filler(n int, fp bool, feed uint8) uint8 {
	if n <= 0 {
		return feed
	}
	if e.memOnly {
		e.pc += mem.Addr(4 * n)
		last := (int(e.reg-firstAllocReg) + n - 1) % numAllocRegs
		e.reg = firstAllocReg + uint8((last+1)%numAllocRegs)
		return firstAllocReg + uint8(last)
	}
	r := feed
	for i := 0; i < n; i++ {
		if fp {
			r = e.FP(r)
		} else {
			r = e.Int(r)
		}
	}
	return r
}

func setSrcs(in *trace.Instr, srcs []uint8) {
	if len(srcs) > 0 {
		in.Src1 = srcs[0]
	}
	if len(srcs) > 1 {
		in.Src2 = srcs[1]
	}
}

// Kernel is one access-pattern generator. Burst emits one unit of work
// (roughly one loop-body execution, tens of instructions); the scheduler
// interleaves bursts from a benchmark's kernels according to their weights.
type Kernel interface {
	// Name identifies the kernel in diagnostics.
	Name() string
	// Burst appends one burst of instructions to the emitter.
	Burst(e *Emitter)
}

// Region is a contiguous data address range a kernel works over.
type Region struct {
	Base mem.Addr
	Size uint64
}

// LineCount returns how many 64-byte lines the region spans.
func (r Region) LineCount() uint64 { return r.Size / 64 }

// LineAddr returns the byte address of the i-th line of the region
// (wrapping at the region end).
func (r Region) LineAddr(i uint64) mem.Addr {
	return r.Base + mem.Addr((i%r.LineCount())*64)
}
