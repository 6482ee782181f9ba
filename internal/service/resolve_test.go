package service

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestResolveCellDedupesOnOneNode: on an unclustered service, concurrent
// resolutions of one cold cell share one computation — one compute, one
// miss, identical bodies — and concurrent resolutions of the stored cell
// still count one disk hit each.
func TestResolveCellDedupesOnOneNode(t *testing.T) {
	s, _ := newTestService(t, Config{})
	const n = 8
	var calls, entered atomic.Int32
	c := newCell("dedupe/cold", "dedupe-test", map[string]int{"callers": n}, func(ctx context.Context) (json.RawMessage, error) {
		calls.Add(1)
		// Hold the computation until every caller has entered the
		// resolver and had time to reach its flight.
		for entered.Load() < n {
			time.Sleep(time.Millisecond)
		}
		time.Sleep(20 * time.Millisecond)
		return json.Marshal(map[string]string{"body": "<cold & shared>"})
	})
	resolveAll := func() ([]json.RawMessage, []bool) {
		entered.Store(0)
		raws, hits := make([]json.RawMessage, n), make([]bool, n)
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				entered.Add(1)
				raw, hit, err := s.resolveCell(context.Background(), c, true)
				if err != nil {
					t.Errorf("caller %d: %v", i, err)
				}
				raws[i], hits[i] = raw, hit
			}(i)
		}
		wg.Wait()
		return raws, hits
	}

	h0, m0 := s.cache.Stats()
	raws, _ := resolveAll()
	if got := calls.Load(); got != 1 {
		t.Errorf("%d concurrent cold resolutions computed %d times, want 1", n, got)
	}
	if _, m := s.cache.Stats(); m-m0 != 1 {
		t.Errorf("cold resolutions counted %d misses, want 1", m-m0)
	}
	for i, raw := range raws {
		if len(raw) == 0 || !bytes.Equal(raw, raws[0]) {
			t.Errorf("caller %d body %q differs from caller 0's %q", i, raw, raws[0])
		}
	}

	h1, m1 := s.cache.Stats()
	warm, hits := resolveAll()
	for i := range warm {
		if !hits[i] || !bytes.Equal(warm[i], raws[0]) {
			t.Errorf("warm caller %d: hit %v, body matches %v", i, hits[i], bytes.Equal(warm[i], raws[0]))
		}
	}
	if h2, m2 := s.cache.Stats(); h2-h1 != n || m2 != m1 {
		t.Errorf("%d concurrent disk hits counted hits +%d misses +%d, want +%d and +0 (cold phase: hits +%d)", n, h2-h1, m2-m1, n, h1-h0)
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("warm resolutions recomputed: %d computes in all, want 1", got)
	}
}

// TestResolveCellPanicReleasesKey: a compute that panics must not leave
// its flight registered. The task runner recovers the panic into an
// error and the service keeps running, so a stuck flight would make
// every later resolution of the cell wait until its own deadline. A
// waiter that joined the panicking flight takes it over and computes,
// and a later resolution replays the stored result.
func TestResolveCellPanicReleasesKey(t *testing.T) {
	s, _ := newTestService(t, Config{})
	var calls atomic.Int32
	release := make(chan struct{})
	c := newCell("panic/once", "panic-test", map[string]int{"n": 1}, func(ctx context.Context) (json.RawMessage, error) {
		if calls.Add(1) == 1 {
			<-release
			panic("boom")
		}
		return json.Marshal("ok")
	})

	leaderDone := make(chan any)
	go func() {
		defer func() { leaderDone <- recover() }() // stands in for the runner's recovery
		_, _, _ = s.resolveCell(context.Background(), c, true)
	}()
	for calls.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	type result struct {
		raw json.RawMessage
		err error
	}
	waiter := make(chan result, 1)
	go func() {
		raw, _, err := s.resolveCell(ctx, c, true)
		waiter <- result{raw, err}
	}()
	time.Sleep(20 * time.Millisecond) // let the waiter join the flight
	close(release)
	if p := <-leaderDone; p == nil {
		t.Fatal("leader did not panic")
	}
	if r := <-waiter; r.err != nil || string(r.raw) != `"ok"` {
		t.Fatalf("resolution after a panicked flight: %q, %v; key is poisoned", r.raw, r.err)
	}
	raw, hit, err := s.resolveCell(ctx, c, true)
	if err != nil || !hit || string(raw) != `"ok"` {
		t.Fatalf("replay: %q hit=%v err=%v", raw, hit, err)
	}
	if got := calls.Load(); got != 2 {
		t.Errorf("computes = %d, want 2 (the panic, then the waiter's takeover)", got)
	}
}

// TestLookupStoreSpanOnlyWhileOpen: a local compute's cache.store span
// hangs under the resolution's cache.lookup while it is open; a store
// after the lookup ended (a steal outliving the forward that won) still
// stores but exports no span.
func TestLookupStoreSpanOnlyWhileOpen(t *testing.T) {
	s, _ := newTestService(t, Config{})
	ring := obs.NewRing(16)
	ctx := obs.Inject(context.Background(), ring, "lookup-spans")
	raw := json.RawMessage(`"v"`)
	compute := func(context.Context) (json.RawMessage, error) { return raw, nil }
	open := newCell("spans/open", "span-test", 1, compute)
	late := newCell("spans/late", "span-test", 2, compute)

	l := startLookup(ctx, open)
	if _, err := s.computeCell(ctx, l, open); err != nil {
		t.Fatal(err)
	}
	l.end(false, tierDisk, nil)
	l = startLookup(ctx, late)
	l.end(false, tierDisk, nil)
	if _, err := s.computeCell(ctx, l, late); err != nil {
		t.Fatal(err)
	}

	recs := ring.ByTrace("lookup-spans")
	var names []string
	for _, r := range recs {
		names = append(names, r.Name)
	}
	if want := []string{"cache.store", "cache.lookup", "cache.lookup"}; !reflect.DeepEqual(names, want) {
		t.Fatalf("spans %v, want %v", names, want)
	}
	if recs[0].Parent != recs[1].Span {
		t.Errorf("cache.store parent %d, want the open lookup %d", recs[0].Parent, recs[1].Span)
	}
	for _, c := range []cell{open, late} {
		if got, ok := s.cache.LoadRaw(c.slug, c.key); !ok || !bytes.Equal(got, raw) {
			t.Errorf("%s: stored %q, %v", c.label, got, ok)
		}
	}
}
