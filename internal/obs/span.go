package obs

import (
	"time"
)

// attrKind discriminates the typed attribute slots. Typed setters (Str,
// Int, Float, Bool) instead of a SetAttr(string, any) keep the disabled
// path allocation-free: boxing an int into an interface can allocate
// even when the receiver is nil.
type attrKind uint8

const (
	attrStr attrKind = iota
	attrInt
	attrFloat
	attrBool
)

// Attr is one typed span attribute.
type Attr struct {
	Key  string
	kind attrKind
	s    string
	i    int64
	f    float64
	b    bool
}

// Value returns the attribute's value as an any (export time only).
func (a Attr) Value() any {
	switch a.kind {
	case attrInt:
		return a.i
	case attrFloat:
		return a.f
	case attrBool:
		return a.b
	default:
		return a.s
	}
}

// Span is one in-flight trace span. A nil *Span is the disabled span:
// every method no-ops, so call sites never branch on enablement.
type Span struct {
	name   string
	trace  string
	id     uint64
	parent uint64
	start  time.Time
	attrs  []Attr

	ctxExp    Exporter // from Inject, may be nil
	globalExp Exporter // from SetExporter, may be nil
}

// ID returns the span's process-unique ID (0 for the nil span).
func (s *Span) ID() uint64 {
	if s == nil {
		return 0
	}
	return s.id
}

// Str attaches a string attribute.
func (s *Span) Str(key, v string) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, Attr{Key: key, kind: attrStr, s: v})
}

// Int attaches an integer attribute.
func (s *Span) Int(key string, v int64) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, Attr{Key: key, kind: attrInt, i: v})
}

// Bool attaches a boolean attribute.
func (s *Span) Bool(key string, v bool) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, Attr{Key: key, kind: attrBool, b: v})
}

// Err attaches the error's message under "error" (nil-safe on both).
func (s *Span) Err(err error) {
	if s == nil || err == nil {
		return
	}
	s.Str("error", err.Error())
}

// End finishes the span and exports its record to the context-injected
// and the process-wide exporters (both, when both are present — even if
// they are the same value, in which case only once).
func (s *Span) End() {
	if s == nil {
		return
	}
	r := SpanRecord{
		Trace:  s.trace,
		Span:   s.id,
		Parent: s.parent,
		Name:   s.name,
		Start:  s.start,
		DurNS:  time.Since(s.start).Nanoseconds(),
	}
	if len(s.attrs) > 0 {
		r.Attrs = make(map[string]any, len(s.attrs))
		for _, a := range s.attrs {
			r.Attrs[a.Key] = a.Value()
		}
	}
	if s.ctxExp != nil {
		s.ctxExp.ExportSpan(r)
	}
	if s.globalExp != nil && s.globalExp != s.ctxExp {
		s.globalExp.ExportSpan(r)
	}
}

// SpanRecord is the exported (finished) form of a span — one NDJSON
// line in -trace-out files and one element of the service's trace ring.
// DESIGN.md §9 documents the schema.
type SpanRecord struct {
	// Trace groups the spans of one run or request: the mctd job ID, or
	// paperbench's run ID.
	Trace string `json:"trace,omitempty"`
	// Span is the process-unique span ID; Parent is the enclosing span's
	// (0 = root).
	Span   uint64 `json:"span"`
	Parent uint64 `json:"parent,omitempty"`
	// Name identifies the operation ("runner.task", "service.admit", ...).
	Name string `json:"name"`
	// Start is the wall-clock start; DurNS the duration in nanoseconds.
	Start time.Time `json:"start"`
	DurNS int64     `json:"dur_ns"`
	// Attrs carries the typed attributes (label, attempt, hit, ...).
	Attrs map[string]any `json:"attrs,omitempty"`
}
