package sim

import (
	"repro/internal/classify"
	"repro/internal/mem"
	"repro/internal/trace"
)

// Kernel is what a BatchClassifier drives: a classification run or
// ladder that takes the compacted memory references of one batch.
type Kernel interface {
	AccessBatch(addrs []mem.Addr, stores []bool)
}

// BatchClassifier drives a classification kernel from SoA record batches:
// it compacts each batch's loads and stores into parallel addr/store
// arrays and hands them to the kernel in one call. All scratch is owned
// by the classifier and reused, so the steady state allocates nothing per
// batch.
type BatchClassifier struct {
	// Addrs and Stores hold the compacted memory references of the most
	// recent Classify call — the accesses whose verdicts sit at the same
	// index in the kernel's per-record results (Run.Hits/Kinds/Classes).
	// Valid until the next Classify.
	Addrs  []mem.Addr
	Stores []bool

	kernel Kernel
	batch  *trace.Batch
	size   int
}

// NewBatchClassifier builds a classifier over kernel processing batchSize
// records per kernel call (0 = trace.DefaultBatchSize).
func NewBatchClassifier(kernel Kernel, batchSize int) *BatchClassifier {
	if batchSize <= 0 {
		batchSize = trace.DefaultBatchSize
	}
	return &BatchClassifier{
		Addrs:  make([]mem.Addr, batchSize),
		Stores: make([]bool, batchSize),
		kernel: kernel,
		batch:  trace.NewBatch(batchSize),
		size:   batchSize,
	}
}

// Classify consumes one batch from src, classifying its memory references.
// It returns the number of records read (0 = src exhausted; check
// src.Err()) and how many of them were memory accesses. After it returns,
// the kernel's per-record results cover exactly the mem accesses of this
// batch, in order.
func (bc *BatchClassifier) Classify(src trace.BatchSource) (records, memOps int) {
	n := src.ReadBatch(bc.batch, bc.size)
	if n == 0 {
		return 0, 0
	}
	b := bc.batch
	m := 0
	for i := 0; i < n; i++ {
		if b.Op[i].IsMem() {
			bc.Addrs[m] = b.Addr[i]
			bc.Stores[m] = b.Op[i] == trace.Store
			m++
		}
	}
	bc.kernel.AccessBatch(bc.Addrs[:m], bc.Stores[:m])
	return n, m
}

// ClassifyAll drains src, returning the total memory accesses classified.
func (bc *BatchClassifier) ClassifyAll(src trace.BatchSource) uint64 {
	var total uint64
	for {
		n, m := bc.Classify(src)
		if n == 0 {
			return total
		}
		total += uint64(m)
	}
}

// ClassifyBatched replays every memory reference from a batch source
// through run in batchSize blocks (0 = trace.DefaultBatchSize), returning
// the number of memory accesses classified.
func ClassifyBatched(run *classify.Run, src trace.BatchSource, batchSize int) uint64 {
	return NewBatchClassifier(run, batchSize).ClassifyAll(src)
}
