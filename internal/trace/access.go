package trace

import "repro/internal/mem"

// AccessSource yields a trace's memory accesses as two parallel columns,
// the address and whether it is a store: the one input of the
// classification kernel, which reads nothing else of a record.
type AccessSource interface {
	// ReadAccesses fills addrs and stores (stores at least as long as
	// addrs) with the next up to len(addrs) accesses, in trace order, and
	// returns how many it wrote; zero means the source is exhausted
	// (check Err for why).
	ReadAccesses(addrs []mem.Addr, stores []bool) int
	// Err returns the first error encountered, if any, once ReadAccesses
	// has returned zero.
	Err() error
}

// AccessStream is a Stream of loads and stores alone that also fills
// access columns straight from its own buffer, copying out no Instr.
// ReadAccesses and Next advance one sequence. workload's MemStream is
// one.
type AccessStream interface {
	Stream
	AccessSource
}

// RecordAccesses is the adaptor from instruction records to access
// columns: it reads a BatchSource (an uploaded trace's Reader, a Mapped
// image, a StreamBatcher over a full stream) one batch at a time and
// compacts each batch's loads and stores into the columns. Its batch is
// reused, so the steady state allocates nothing.
type RecordAccesses struct {
	src   BatchSource
	batch *Batch
}

// NewRecordAccesses wraps src.
func NewRecordAccesses(src BatchSource) *RecordAccesses {
	return &RecordAccesses{src: src, batch: NewBatch(DefaultBatchSize)}
}

// ReadAccesses implements AccessSource. It reads len(addrs) records at a
// time, and reads on while a batch holds no access, so zero means the
// records ran out.
func (a *RecordAccesses) ReadAccesses(addrs []mem.Addr, stores []bool) int {
	stores = stores[:len(addrs)]
	b := a.batch
	for {
		n := a.src.ReadBatch(b, len(addrs))
		if n == 0 {
			return 0
		}
		m := 0
		for i, op := range b.Op[:n] {
			if op.IsMem() {
				addrs[m] = b.Addr[i]
				stores[m] = op == Store
				m++
			}
		}
		if m > 0 {
			return m
		}
	}
}

// Err implements AccessSource: the record source's error.
func (a *RecordAccesses) Err() error { return a.src.Err() }

// StreamAccesses returns the access columns of s. An AccessStream, also
// under one Limit, fills them itself; any other stream goes through
// RecordAccesses, since only its records say which instructions are
// accesses. Read s through the result alone from then on.
func StreamAccesses(s Stream) AccessSource {
	switch s := s.(type) {
	case AccessStream:
		return s
	case *Limit:
		if inner, ok := s.inner.(AccessStream); ok {
			return limitedAccesses{l: s, inner: inner}
		}
	}
	return NewRecordAccesses(NewStreamBatcher(s))
}

// limitedAccesses reads a Limit's inner AccessStream, counting the
// accesses against the limit.
type limitedAccesses struct {
	l     *Limit
	inner AccessStream
}

func (a limitedAccesses) ReadAccesses(addrs []mem.Addr, stores []bool) int {
	if uint64(len(addrs)) > a.l.left {
		addrs = addrs[:a.l.left]
	}
	if len(addrs) == 0 {
		return 0
	}
	n := a.inner.ReadAccesses(addrs, stores)
	if n == 0 {
		a.l.left = 0 // the inner stream ended, as Limit.Next records it
	} else {
		a.l.left -= uint64(n)
	}
	return n
}

func (a limitedAccesses) Err() error { return a.inner.Err() }
