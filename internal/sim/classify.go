package sim

import (
	"repro/internal/classify"
	"repro/internal/mem"
	"repro/internal/trace"
)

// Kernel is what a BatchClassifier drives: a classification run or
// ladder that takes the memory references of one batch as columns.
type Kernel interface {
	AccessBatch(addrs []mem.Addr, stores []bool)
}

// BatchClassifier drives a classification kernel from an access source:
// each Classify reads one batch of accesses into the classifier's own
// address and store columns and hands them to the kernel in one call.
// The columns are reused, so the steady state allocates nothing per
// batch.
type BatchClassifier struct {
	// Addrs and Stores hold the accesses of the most recent Classify
	// call — the accesses whose verdicts sit at the same index in the
	// kernel's per-record results (Run.Hits/Kinds/Classes). Valid until
	// the next Classify.
	Addrs  []mem.Addr
	Stores []bool

	kernel Kernel
}

// NewBatchClassifier builds a classifier over kernel processing up to
// batchSize accesses per kernel call (0 = trace.DefaultBatchSize).
func NewBatchClassifier(kernel Kernel, batchSize int) *BatchClassifier {
	if batchSize <= 0 {
		batchSize = trace.DefaultBatchSize
	}
	return &BatchClassifier{
		Addrs:  make([]mem.Addr, batchSize),
		Stores: make([]bool, batchSize),
		kernel: kernel,
	}
}

// Classify reads one batch of accesses from src and classifies it. It
// returns how many accesses it read (0 = src exhausted; check
// src.Err()). After it returns, the kernel's per-record results cover
// exactly Addrs and Stores, in order.
func (bc *BatchClassifier) Classify(src trace.AccessSource) int {
	m := src.ReadAccesses(bc.Addrs[:cap(bc.Addrs)], bc.Stores[:cap(bc.Stores)])
	bc.Addrs, bc.Stores = bc.Addrs[:m], bc.Stores[:m]
	if m > 0 {
		bc.kernel.AccessBatch(bc.Addrs, bc.Stores)
	}
	return m
}

// ClassifyAll drains src, returning the total memory accesses classified.
func (bc *BatchClassifier) ClassifyAll(src trace.AccessSource) uint64 {
	var total uint64
	for {
		m := bc.Classify(src)
		if m == 0 {
			return total
		}
		total += uint64(m)
	}
}

// ClassifyBatched replays every memory reference of a record source (a
// trace Reader or Mapped image) through run in batchSize blocks (0 =
// trace.DefaultBatchSize), returning the number of memory accesses
// classified.
func ClassifyBatched(run *classify.Run, src trace.BatchSource, batchSize int) uint64 {
	return NewBatchClassifier(run, batchSize).ClassifyAll(trace.NewRecordAccesses(src))
}
