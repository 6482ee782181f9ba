// Package obs is the repo's zero-dependency observability spine, shared
// by the experiment runner, the mctd service, and the CLIs. It provides
//
//   - context-propagated trace spans with run/request IDs (span.go),
//     exported as NDJSON to a file, a bounded in-memory ring (the
//     service's GET /v1/trace/{job} tail), or both;
//   - fixed-bucket counters-only histograms (hist.go) that feed the
//     service's Prometheus text exposition (prom.go), its one metrics
//     surface, with QuantileOf as the one bucket-interpolation rule;
//   - a slow-task log (slowlog.go): task attempts exceeding N× the
//     running median duration for their label produce a structured
//     event carrying label, attempt, and span ID;
//   - a serialized writer (syncwriter.go) so concurrent diagnostic
//     streams (cache log, server log, slow-task events) cannot shear
//     lines.
//
// The design center is "free when off": with no exporter installed and
// no slow-log configured, Start/End/NoteTask are a couple of branches
// and zero allocations (pinned by alloc_test.go), so instrumented code
// paths — every runner.Map task attempt runs under a span — cost
// nothing in ordinary CLI runs. Only stdlib imports, so any package may
// depend on obs without cycles.
package obs

import (
	"context"
	"sync/atomic"
	"time"
)

// Exporter receives finished spans. Implementations must be safe for
// concurrent use; End calls them from whatever goroutine ends the span.
type Exporter interface {
	ExportSpan(r SpanRecord)
}

// globalExporter is the process-wide exporter (CLI -trace-out). The
// context-scoped exporter installed by Inject composes with it: a span
// under both exports to both.
var globalExporter atomic.Pointer[Exporter]

// SetExporter installs e as the process-wide span exporter (nil removes
// it). With no process-wide exporter and no context-injected one,
// tracing is off and Start returns a nil span at zero cost.
func SetExporter(e Exporter) {
	if e == nil {
		globalExporter.Store(nil)
		return
	}
	globalExporter.Store(&e)
}

// defaultTrace is the trace ID used for spans whose context carries
// none — cmd/paperbench stamps its run ID here so every task-attempt
// span of a sweep shares one trace.
var defaultTrace atomic.Pointer[string]

// SetDefaultTrace sets the fallback trace ID ("" clears it).
func SetDefaultTrace(id string) {
	if id == "" {
		defaultTrace.Store(nil)
		return
	}
	defaultTrace.Store(&id)
}

func fallbackTrace() string {
	if p := defaultTrace.Load(); p != nil {
		return *p
	}
	return ""
}

// spanSeq hands out process-unique span IDs. 0 is reserved for "no
// span" (the nil span's ID).
var spanSeq atomic.Uint64

// ctxData is what a traced context carries: the injected exporter (may
// be nil when only the global exporter is in play), the trace ID, and
// the enclosing span's ID.
type ctxData struct {
	exp    Exporter
	trace  string
	parent uint64
}

type ctxKey struct{}

// Inject returns a context that exports spans started under it to e
// (in addition to the process-wide exporter) under trace ID traceID.
// The service injects its span ring with the job ID per request; nested
// Inject calls override both fields.
func Inject(ctx context.Context, e Exporter, traceID string) context.Context {
	return context.WithValue(ctx, ctxKey{}, &ctxData{exp: e, trace: traceID})
}

// Start begins a span named name under ctx. When tracing is off (no
// exporter reachable from ctx) it returns ctx unchanged and a nil span
// whose methods are all no-ops — the disabled path performs no
// allocation. When tracing is on, the returned context parents
// subsequent spans under the new one.
func Start(ctx context.Context, name string) (context.Context, *Span) {
	g := globalExporter.Load()
	d, _ := ctx.Value(ctxKey{}).(*ctxData)
	var ce Exporter
	if d != nil {
		ce = d.exp
	}
	if g == nil && ce == nil {
		return ctx, nil
	}
	sp := &Span{name: name, id: spanSeq.Add(1), start: time.Now(), ctxExp: ce}
	if g != nil {
		sp.globalExp = *g
	}
	if d != nil {
		sp.trace = d.trace
		sp.parent = d.parent
	}
	if sp.trace == "" {
		sp.trace = fallbackTrace()
	}
	nd := &ctxData{exp: ce, trace: sp.trace, parent: sp.id}
	return context.WithValue(ctx, ctxKey{}, nd), sp
}
