package obs

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"
)

// collector is a test exporter capturing records in order.
type collector struct {
	mu   sync.Mutex
	recs []SpanRecord
}

func (c *collector) ExportSpan(r SpanRecord) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.recs = append(c.recs, r)
}

func (c *collector) all() []SpanRecord {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]SpanRecord, len(c.recs))
	copy(out, c.recs)
	return out
}

func TestSpanDisabledIsNil(t *testing.T) {
	ctx, sp := Start(context.Background(), "noop")
	if sp != nil {
		t.Fatal("Start with no exporter must return a nil span")
	}
	if ctx != context.Background() {
		t.Fatal("disabled Start must return the context unchanged")
	}
	// Every nil-span method must be a safe no-op.
	sp.Str("k", "v")
	sp.Int("k", 1)
	sp.Bool("k", true)
	sp.Err(errors.New("x"))
	sp.End()
	if sp.ID() != 0 {
		t.Error("nil span must report zero ID")
	}
}

func TestSpanHierarchyAndTrace(t *testing.T) {
	var c collector
	ctx := Inject(context.Background(), &c, "job-1")

	ctx1, root := Start(ctx, "request")
	root.Str("client", "tester")
	_, child := Start(ctx1, "admit")
	child.Bool("ok", true)
	child.End()
	root.End()

	recs := c.all()
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2", len(recs))
	}
	ad, rq := recs[0], recs[1] // child ends first
	if ad.Name != "admit" || rq.Name != "request" {
		t.Fatalf("names = %q, %q", ad.Name, rq.Name)
	}
	if ad.Trace != "job-1" || rq.Trace != "job-1" {
		t.Errorf("traces = %q, %q, want job-1", ad.Trace, rq.Trace)
	}
	if ad.Parent != rq.Span {
		t.Errorf("child parent = %d, want root span %d", ad.Parent, rq.Span)
	}
	if rq.Parent != 0 {
		t.Errorf("root parent = %d, want 0", rq.Parent)
	}
	if rq.Attrs["client"] != "tester" {
		t.Errorf("root attrs = %v", rq.Attrs)
	}
	if ad.Attrs["ok"] != true {
		t.Errorf("child attrs = %v", ad.Attrs)
	}
	if ad.DurNS < 0 || rq.DurNS < ad.DurNS {
		t.Errorf("durations implausible: child %d, root %d", ad.DurNS, rq.DurNS)
	}
}

func TestGlobalAndContextExportersBothReceive(t *testing.T) {
	var g, c collector
	SetExporter(&g)
	defer SetExporter(nil)

	ctx := Inject(context.Background(), &c, "j")
	_, sp := Start(ctx, "both")
	sp.End()

	if len(g.all()) != 1 || len(c.all()) != 1 {
		t.Fatalf("global saw %d, ctx saw %d, want 1 each", len(g.all()), len(c.all()))
	}
	// Same exporter in both roles must receive the span once.
	SetExporter(&c)
	ctx2 := Inject(context.Background(), &c, "j2")
	_, sp2 := Start(ctx2, "once")
	sp2.End()
	n := 0
	for _, r := range c.all() {
		if r.Name == "once" {
			n++
		}
	}
	if n != 1 {
		t.Errorf("same exporter saw the span %d times, want 1", n)
	}
}

func TestDefaultTrace(t *testing.T) {
	var g collector
	SetExporter(&g)
	defer SetExporter(nil)
	SetDefaultTrace("run-42")
	defer SetDefaultTrace("")

	_, sp := Start(context.Background(), "task")
	sp.End()
	if recs := g.all(); len(recs) != 1 || recs[0].Trace != "run-42" {
		t.Fatalf("records = %+v, want one with trace run-42", recs)
	}
}

func TestNDJSONExporter(t *testing.T) {
	var buf bytes.Buffer
	e := NewNDJSONExporter(&buf)
	ctx := Inject(context.Background(), e, "t1")
	for i := 0; i < 3; i++ {
		_, sp := Start(ctx, "op")
		sp.Int("i", int64(i))
		sp.End()
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	lines := 0
	for sc.Scan() {
		var r SpanRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("line %d is not JSON: %v\n%s", lines, err, sc.Text())
		}
		if r.Trace != "t1" || r.Name != "op" {
			t.Errorf("record = %+v", r)
		}
		lines++
	}
	if lines != 3 {
		t.Errorf("%d NDJSON lines, want 3", lines)
	}
}

func TestRingEvictsOldest(t *testing.T) {
	r := NewRing(4)
	for i := 0; i < 6; i++ {
		tr := "drop"
		if i >= 2 {
			tr = "keep"
		}
		_, sp := Start(Inject(context.Background(), r, tr), "op")
		sp.Int("i", int64(i))
		sp.End()
	}
	if got := r.ByTrace("drop"); len(got) != 0 {
		t.Errorf("evicted trace still visible: %+v", got)
	}
	kept := r.ByTrace("keep")
	if len(kept) != 4 {
		t.Fatalf("kept %d spans, want 4", len(kept))
	}
	for i, rec := range kept {
		if want := int64(i + 2); rec.Attrs["i"] != want {
			// JSON round-trip is not in play here; attrs hold int64.
			t.Errorf("kept[%d] attr i = %v, want %d (oldest-first order)", i, rec.Attrs["i"], want)
		}
	}
}

func TestSyncWriterNoShearing(t *testing.T) {
	var buf bytes.Buffer
	w := NewSyncWriter(&buf)
	if NewSyncWriter(w) != w {
		t.Error("double wrap must return the same SyncWriter")
	}
	var wg sync.WaitGroup
	const writers, lines = 8, 50
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			line := strings.Repeat(string(rune('a'+id)), 40) + "\n"
			for j := 0; j < lines; j++ {
				if _, err := w.Write([]byte(line)); err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for _, line := range strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n") {
		if len(line) != 40 || strings.Count(line, line[:1]) != 40 {
			t.Fatalf("sheared line: %q", line)
		}
	}
}
