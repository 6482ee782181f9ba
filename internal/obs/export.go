package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// NDJSONExporter writes one JSON object per finished span to an
// io.Writer, serialized behind a mutex so concurrent span ends never
// interleave bytes. Writes are buffered; Close drains the buffer and
// reports the first write error encountered anywhere along the way —
// span export itself never fails the exporting goroutine.
type NDJSONExporter struct {
	mu  sync.Mutex
	bw  *bufio.Writer
	c   io.Closer // nil when the writer is not a closer
	err error
}

// NewNDJSONExporter wraps w. If w is an io.Closer (a file), Close
// closes it.
func NewNDJSONExporter(w io.Writer) *NDJSONExporter {
	e := &NDJSONExporter{bw: bufio.NewWriter(w)}
	if c, ok := w.(io.Closer); ok {
		e.c = c
	}
	return e
}

// ExportSpan implements Exporter.
func (e *NDJSONExporter) ExportSpan(r SpanRecord) {
	enc, err := json.Marshal(r)
	if err != nil {
		// A span that cannot marshal is a programming error in attr
		// construction; record it, drop the span.
		e.mu.Lock()
		if e.err == nil {
			e.err = fmt.Errorf("obs: marshaling span %q: %w", r.Name, err)
		}
		e.mu.Unlock()
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.err != nil {
		return
	}
	if _, err := e.bw.Write(append(enc, '\n')); err != nil {
		e.err = err
	}
}

// Close flushes and closes the underlying writer (when closable).
func (e *NDJSONExporter) Close() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	ferr := e.bw.Flush()
	if e.err == nil {
		e.err = ferr
	}
	if e.c != nil {
		if cerr := e.c.Close(); e.err == nil {
			e.err = cerr
		}
	}
	return e.err
}

// Ring is a bounded in-memory span buffer: the newest cap records win,
// the oldest are overwritten. The service keeps one per instance to
// serve GET /v1/trace/{job} — observability that can never become a
// memory leak.
type Ring struct {
	mu   sync.Mutex
	recs []ringRec
	next int
	full bool
}

// ringRec is a record as the ring holds it: the attributes as a slice
// instead of the record's map, which is rebuilt on read. A small map
// costs several times the slice, and a ring holds thousands of records
// for its whole life, so the map form would dominate the service's
// resident heap.
type ringRec struct {
	rec   SpanRecord // Attrs always nil
	attrs []ringAttr
}

type ringAttr struct {
	key string
	val any
}

func (rr ringRec) record() SpanRecord {
	rec := rr.rec
	if len(rr.attrs) > 0 {
		rec.Attrs = make(map[string]any, len(rr.attrs))
		for _, a := range rr.attrs {
			rec.Attrs[a.key] = a.val
		}
	}
	return rec
}

// NewRing builds a ring holding up to capacity spans (minimum 1).
func NewRing(capacity int) *Ring {
	if capacity < 1 {
		capacity = 1
	}
	return &Ring{recs: make([]ringRec, capacity)}
}

// ExportSpan implements Exporter.
func (r *Ring) ExportSpan(rec SpanRecord) {
	rr := ringRec{rec: rec}
	if len(rec.Attrs) > 0 {
		rr.attrs = make([]ringAttr, 0, len(rec.Attrs))
		for k, v := range rec.Attrs {
			rr.attrs = append(rr.attrs, ringAttr{k, v})
		}
		rr.rec.Attrs = nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.recs[r.next] = rr
	r.next++
	if r.next == len(r.recs) {
		r.next = 0
		r.full = true
	}
}

// snapshotLocked returns the live records oldest-first. Caller holds mu.
func (r *Ring) snapshotLocked() []ringRec {
	if !r.full {
		return r.recs[:r.next]
	}
	out := make([]ringRec, 0, len(r.recs))
	out = append(out, r.recs[r.next:]...)
	out = append(out, r.recs[:r.next]...)
	return out
}

// ByTrace returns the buffered spans whose trace ID is trace, oldest
// first. The result is a copy; the caller owns it.
func (r *Ring) ByTrace(trace string) []SpanRecord {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []SpanRecord
	for _, rr := range r.snapshotLocked() {
		if rr.rec.Trace == trace {
			out = append(out, rr.record())
		}
	}
	return out
}
