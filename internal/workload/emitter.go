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
// bursts — giving PC-indexed predictors realistic behavior), and writes
// each instruction in place in the stream's refill buffer. Every
// instruction names at most one source register: the dependence chain the
// kernel threads through it.
//
// A memory-only emitter writes only loads and stores. Every other
// instruction still advances the PC and the register allocator and draws
// the same random numbers, so the loads and stores it does write are
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

// emit writes one instruction in place at the end of the refill buffer,
// which the stream reuses from burst to burst: no record is built and
// copied in. Every field is written, so a reused slot keeps nothing of its
// previous record.
func (e *Emitter) emit(pc mem.Addr, op trace.OpClass, dest, src uint8, addr mem.Addr, taken bool) {
	n := len(e.buf)
	if n < cap(e.buf) {
		e.buf = e.buf[:n+1]
	} else {
		e.buf = append(e.buf, trace.Instr{})
	}
	in := &e.buf[n]
	in.PC = pc
	in.Op = op
	in.Dest = dest
	in.Src1 = src
	in.Src2 = trace.RegZero
	in.Addr = addr
	in.Taken = taken
}

// Load emits a load from addr whose address depends on register src
// (RegZero for none) and returns the destination register holding the
// result.
func (e *Emitter) Load(addr mem.Addr, src uint8) uint8 {
	d := e.allocReg()
	e.emit(e.nextPC(), trace.Load, d, src, addr, false)
	return d
}

// Store emits a store to addr whose data depends on register src.
func (e *Emitter) Store(addr mem.Addr, src uint8) {
	e.emit(e.nextPC(), trace.Store, trace.RegZero, src, addr, false)
}

// Int emits a one-cycle integer op on src and returns its destination
// register.
func (e *Emitter) Int(src uint8) uint8 {
	return e.alu(trace.IntOp, src)
}

// FP emits a pipelined floating-point op on src.
func (e *Emitter) FP(src uint8) uint8 {
	return e.alu(trace.FPOp, src)
}

func (e *Emitter) alu(op trace.OpClass, src uint8) uint8 {
	d := e.allocReg()
	pc := e.nextPC()
	if !e.memOnly {
		e.emit(pc, op, d, src, 0, false)
	}
	return d
}

// LoopBranch emits the backward branch closing a loop body, depending on
// src. taken should be true except on the final iteration; loop branches
// are highly predictable, like real loop-closing branches.
func (e *Emitter) LoopBranch(taken bool, src uint8) {
	pc := e.nextPC()
	if !e.memOnly {
		e.emit(pc, trace.Branch, trace.RegZero, src, 0, taken)
	}
}

// DataBranch emits a data-dependent branch on src taken with probability
// p, modeling the poorly-predictable control flow of irregular codes. A
// memory-only emitter still draws the outcome, keeping the random sequence
// of the full stream.
func (e *Emitter) DataBranch(p float64, src uint8) {
	pc := e.nextPC()
	taken := e.rng.Bool(p)
	if !e.memOnly {
		e.emit(pc, trace.Branch, trace.RegZero, src, 0, taken)
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
		// Wrap by subtraction rather than %: a filler seldom spans a
		// whole turn of the allocator, and the two divisions by 62 were
		// a third of a cold MRC spec's generator time.
		e.pc += mem.Addr(4 * n)
		last := int(e.reg-firstAllocReg) + n - 1
		for last >= numAllocRegs {
			last -= numAllocRegs
		}
		next := last + 1
		if next == numAllocRegs {
			next = 0
		}
		e.reg = firstAllocReg + uint8(next)
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

// Kernel is one access-pattern generator. Burst emits one unit of work
// (roughly one loop-body execution, tens of instructions); the scheduler
// interleaves bursts from a benchmark's kernels according to their weights.
type Kernel interface {
	// Name identifies the kernel in diagnostics.
	Name() string
	// Burst emits one burst of instructions through the emitter.
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
