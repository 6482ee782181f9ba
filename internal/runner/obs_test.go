package runner

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

// spanSink collects exported spans for the wiring tests.
type spanSink struct {
	mu   sync.Mutex
	recs []obs.SpanRecord
}

func (s *spanSink) ExportSpan(r obs.SpanRecord) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.recs = append(s.recs, r)
}

func (s *spanSink) byName(name string) []obs.SpanRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []obs.SpanRecord
	for _, r := range s.recs {
		if r.Name == name {
			out = append(out, r)
		}
	}
	return out
}

func TestMapEmitsSpanPerAttempt(t *testing.T) {
	var sink spanSink
	ctx := obs.Inject(context.Background(), &sink, "run-x")

	var failedOnce atomic.Bool
	_, err := Map(ctx, []Task[int]{
		{Label: "ok", Run: func(context.Context) (int, error) { return 1, nil }},
		{Label: "flaky", Run: func(context.Context) (int, error) {
			if failedOnce.CompareAndSwap(false, true) {
				return 0, Retryable(errors.New("transient"))
			}
			return 2, nil
		}},
	}, Workers(1), Retry(2, 0))
	if err != nil {
		t.Fatal(err)
	}

	spans := sink.byName("runner.task")
	if len(spans) != 3 {
		t.Fatalf("got %d runner.task spans, want 3 (1 ok + 2 flaky attempts): %+v", len(spans), spans)
	}
	byLabel := map[string][]obs.SpanRecord{}
	for _, r := range spans {
		if r.Trace != "run-x" {
			t.Errorf("span trace = %q, want run-x", r.Trace)
		}
		label, _ := r.Attrs["label"].(string)
		byLabel[label] = append(byLabel[label], r)
	}
	if len(byLabel["ok"]) != 1 || len(byLabel["flaky"]) != 2 {
		t.Fatalf("spans per label = ok:%d flaky:%d", len(byLabel["ok"]), len(byLabel["flaky"]))
	}
	// The failed first attempt must carry the error and attempt 0; the
	// retry carries attempt 1 and no error.
	first, second := byLabel["flaky"][0], byLabel["flaky"][1]
	if first.Attrs["attempt"] != int64(0) || second.Attrs["attempt"] != int64(1) {
		t.Errorf("attempts = %v, %v", first.Attrs["attempt"], second.Attrs["attempt"])
	}
	if _, ok := first.Attrs["error"]; !ok {
		t.Errorf("failed attempt span missing error attr: %+v", first)
	}
	if _, ok := second.Attrs["error"]; ok {
		t.Errorf("successful retry span has error attr: %+v", second)
	}
}

func TestMapSpanContextFlowsIntoTask(t *testing.T) {
	var sink spanSink
	ctx := obs.Inject(context.Background(), &sink, "run-y")
	_, err := Map(ctx, []Task[int]{{Label: "nested", Run: func(tctx context.Context) (int, error) {
		_, sp := obs.Start(tctx, "inner")
		sp.End()
		return 0, nil
	}}})
	if err != nil {
		t.Fatal(err)
	}
	inner := sink.byName("inner")
	outer := sink.byName("runner.task")
	if len(inner) != 1 || len(outer) != 1 {
		t.Fatalf("spans: inner=%d outer=%d, want 1 each", len(inner), len(outer))
	}
	if inner[0].Parent != outer[0].Span {
		t.Errorf("inner parent = %d, want task span %d", inner[0].Parent, outer[0].Span)
	}
}

func TestMapSpanUnderDeadlinePath(t *testing.T) {
	// The deadline path runs the body on a separate goroutine; the span
	// must still cover the attempt and propagate into the body context.
	var sink spanSink
	ctx := obs.Inject(context.Background(), &sink, "run-z")
	_, err := Map(ctx, []Task[int]{{Label: "timed", Run: func(tctx context.Context) (int, error) {
		_, sp := obs.Start(tctx, "inner")
		sp.End()
		return 7, nil
	}}}, Deadline(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	spans := sink.byName("runner.task")
	if len(spans) != 1 {
		t.Fatalf("got %d spans under deadline path, want 1", len(spans))
	}
	if inner := sink.byName("inner"); len(inner) != 1 || inner[0].Parent != spans[0].Span {
		t.Errorf("span context did not reach the task body: inner spans %+v", inner)
	}
}

// TestMapFeedsSlowTaskLog runs eight steady attempts and one slow one
// under one label and wants exactly one slow-log event, for the slow
// attempt. The durations are spaced for a loaded machine: a steady
// attempt would have to overrun its sleep by 2x (30 ms, where a full
// parallel test run was seen to add ~5 ms) to cross the 3x threshold,
// and the slow attempt stays above it unless the steady median more than
// quintuples.
func TestMapFeedsSlowTaskLog(t *testing.T) {
	const steady, slow = 15 * time.Millisecond, 250 * time.Millisecond
	var mu sync.Mutex
	var events []obs.SlowEvent
	obs.SetSlowLog(3, 4, func(e obs.SlowEvent) {
		mu.Lock()
		events = append(events, e)
		mu.Unlock()
	})
	defer obs.SetSlowLog(0, 0, nil)

	tasks := make([]Task[int], 9)
	for i := range tasks {
		i := i
		tasks[i] = Task[int]{Label: "steady", Run: func(context.Context) (int, error) {
			if i == 8 {
				time.Sleep(slow)
			} else {
				time.Sleep(steady)
			}
			return i, nil
		}}
	}
	if _, err := Map(context.Background(), tasks, Workers(1)); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(events) != 1 {
		t.Fatalf("slow log fired %d times, want 1: %+v", len(events), events)
	}
	if events[0].Label != "steady" || events[0].Dur < slow {
		t.Errorf("event = %+v, want label steady and a duration of at least %v", events[0], slow)
	}
}
