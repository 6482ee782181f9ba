// Package trace defines the instruction-trace representation that couples
// the synthetic workload generators to the processor timing model, plus a
// compact binary on-disk format so traces can be captured, inspected, and
// replayed.
//
// The original paper drives SMTSIM with Compaq Alpha binaries. This
// reproduction substitutes abstract instruction records carrying exactly
// what a memory-system study needs: an operation class (for functional-unit
// latency and queue routing), register dependences (for issue scheduling),
// a memory address (for the cache hierarchy), and a branch outcome (for the
// mispredict-bubble model).
package trace

import (
	"fmt"

	"repro/internal/mem"
)

// OpClass is the coarse operation class of an instruction.
type OpClass uint8

const (
	// IntOp is a single-cycle integer ALU operation.
	IntOp OpClass = iota
	// IntMul is a multi-cycle integer multiply.
	IntMul
	// FPOp is a pipelined floating-point add/multiply.
	FPOp
	// FPDiv is a long-latency floating-point divide.
	FPDiv
	// Load reads memory.
	Load
	// Store writes memory.
	Store
	// Branch is a conditional branch with a recorded outcome.
	Branch
	numOpClasses
)

// NumOpClasses is the number of distinct operation classes.
const NumOpClasses = int(numOpClasses)

// String names the op class.
func (o OpClass) String() string {
	switch o {
	case IntOp:
		return "int"
	case IntMul:
		return "imul"
	case FPOp:
		return "fp"
	case FPDiv:
		return "fdiv"
	case Load:
		return "load"
	case Store:
		return "store"
	case Branch:
		return "branch"
	default:
		return fmt.Sprintf("OpClass(%d)", uint8(o))
	}
}

// IsMem reports whether the op accesses data memory.
func (o OpClass) IsMem() bool { return o == Load || o == Store }

// ExecLatency returns the functional-unit latency in cycles for the class.
// Memory latency for loads is determined by the cache hierarchy instead.
func (o OpClass) ExecLatency() int {
	switch o {
	case IntOp, Branch, Store:
		return 1
	case IntMul:
		return 3
	case FPOp:
		return 4
	case FPDiv:
		return 16
	case Load:
		return 1 // address generation; memory time added by the hierarchy
	default:
		return 1
	}
}

// RegZero is the hardwired zero register: reading it creates no dependence
// and writing it is discarded, exactly like Alpha's r31.
const RegZero uint8 = 0

// NumRegs is the size of the architectural register file the generators
// allocate from (integer and FP share the namespace for simplicity; the
// scheduler only cares about dependences, not banks).
const NumRegs = 64

// Instr is one dynamic instruction.
type Instr struct {
	// PC is the instruction's address. Exclusion predictors and the branch
	// predictor index by it.
	PC mem.Addr
	// Op is the operation class.
	Op OpClass
	// Dest is the destination register (RegZero if none).
	Dest uint8
	// Src1, Src2 are source registers (RegZero if unused).
	Src1, Src2 uint8
	// Addr is the effective address for loads and stores.
	Addr mem.Addr
	// Taken is the branch outcome for Branch ops.
	Taken bool
}

// Stream produces a sequence of instructions. Next stores the next
// instruction into out and reports whether one was produced; once it
// returns false the stream is exhausted and stays exhausted.
type Stream interface {
	Next(out *Instr) bool
}

// SliceStream adapts a slice of instructions to a Stream.
type SliceStream struct {
	instrs []Instr
	pos    int
}

// NewSliceStream wraps instrs (not copied) in a Stream.
func NewSliceStream(instrs []Instr) *SliceStream {
	return &SliceStream{instrs: instrs}
}

// Next implements Stream.
func (s *SliceStream) Next(out *Instr) bool {
	if s.pos >= len(s.instrs) {
		return false
	}
	*out = s.instrs[s.pos]
	s.pos++
	return true
}

// Limit wraps a stream and cuts it off after n instructions.
type Limit struct {
	inner Stream
	left  uint64
}

// NewLimit returns a stream yielding at most n instructions from inner.
func NewLimit(inner Stream, n uint64) *Limit {
	return &Limit{inner: inner, left: n}
}

// Next implements Stream.
func (l *Limit) Next(out *Instr) bool {
	if l.left == 0 {
		return false
	}
	if !l.inner.Next(out) {
		l.left = 0
		return false
	}
	l.left--
	return true
}

// Drain pulls every remaining instruction from s into a slice. Intended for
// tests and small traces only.
func Drain(s Stream) []Instr {
	var out []Instr
	var in Instr
	for s.Next(&in) {
		out = append(out, in)
	}
	return out
}

// MemOnly filters a stream down to its loads and stores — the access
// stream the functional classification experiments replay. Synthetic
// benchmarks produce that stream directly with workload's MemStream,
// without building the instructions this filter would discard; MemOnly is
// the generic filter for every other stream.
type MemOnly struct {
	inner Stream
}

// NewMemOnly wraps inner, yielding only memory operations.
func NewMemOnly(inner Stream) *MemOnly { return &MemOnly{inner: inner} }

// Next implements Stream.
func (m *MemOnly) Next(out *Instr) bool {
	for m.inner.Next(out) {
		if out.Op.IsMem() {
			return true
		}
	}
	return false
}
