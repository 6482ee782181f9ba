package main

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/rng"
)

// clients is the closed loop's concurrency: two workers, each sending its
// next operation only after the previous one completed. The benchmark
// host has two cores, and the service workloads never hold more than this
// many connections.
const clients = 2

// bench is one set-up benchmark workload. Its operations come in
// passes: every pass runs each of the workload's passLen items exactly
// once, in a seed-derived order, so every run does the same multiset of
// work whatever its length.
type bench interface {
	passLen() int
	// run executes one operation and returns its end-to-end latency, as
	// timed around the call into the system under test. A non-nil o.tr
	// asks for a traced operation: the workload then also times the
	// calls into each layer's public functions, as spans under o.tr.
	run(o *op) (time.Duration, error)
	// layers reduces a traced window to the workload's per-layer metrics;
	// ops holds each operation's span durations by name, and before and
	// after are the service scrapes around the window (nil without a
	// service).
	layers(w window, ops map[uint64]map[string]time.Duration, before, after promSnap) map[string]float64
	// e2eSpan names the span that times a traced operation's end-to-end
	// call; its sibling spans are the layers.
	e2eSpan() string
	// digest is a SHA-256 over the outputs every operation is checked
	// against.
	digest() string
	close()
}

// op names one operation of a window.
type op struct {
	pass, item, worker int
	id                 uint64
	tr                 *opTrace
}

// record is one finished operation.
type record struct {
	item int
	id   uint64
	lat  time.Duration
	err  error
}

// window is the outcome of one closed-loop measurement window.
type window struct {
	recs   []record
	wall   time.Duration
	passes int
	failed int // operations whose run returned an error, plus failed window checks

	before, after promSnap // service scrapes around the window (nil without a service)
}

func (w *window) opsPerSec() float64 { return float64(len(w.recs)) / w.wall.Seconds() }

// latencies returns the successful operations' latencies in ms, sorted,
// restricted to the items keep accepts (nil keeps every item).
func (w *window) latencies(keep func(item int) bool) []float64 {
	var out []float64
	for _, r := range w.recs {
		if r.err == nil && (keep == nil || keep(r.item)) {
			out = append(out, ms(r.lat))
		}
	}
	sort.Float64s(out)
	return out
}

// passOrder returns the seed-derived order of pass p's items.
func passOrder(seed uint64, p, n int) []int {
	order := make([]int, n)
	rng.New(seed ^ uint64(p+1)*0x9e3779b97f4a7c15).Perm(order)
	return order
}

// loop drives w with the closed loop. Passes are numbered from firstPass
// (so seed-derived per-pass inputs never repeat across windows of one
// run). The window ends at the first pass boundary after dur has
// elapsed, or after maxPasses passes (0 = no cap). With tr non-nil every
// operation is traced.
func loop(w bench, seed uint64, firstPass int, dur time.Duration, maxPasses int, tr *tracer) window {
	runtime.GC()
	var (
		mu     sync.Mutex
		pass   = firstPass
		order  = passOrder(seed, pass, w.passLen())
		next   int
		nextID uint64
		done   bool
		out    window
	)
	start := time.Now()
	deadline := start.Add(dur)
	// claim hands out the next operation, or false once the window is over.
	claim := func(worker int) (op, bool) {
		mu.Lock()
		defer mu.Unlock()
		if !done && next == len(order) {
			pass++
			out.passes++
			if time.Now().After(deadline) || (maxPasses > 0 && out.passes >= maxPasses) {
				done = true
			} else {
				order, next = passOrder(seed, pass, w.passLen()), 0
			}
		}
		if done {
			return op{}, false
		}
		o := op{pass: pass, item: order[next], worker: worker, id: nextID}
		next++
		nextID++
		return o, true
	}
	var wg sync.WaitGroup
	perWorker := make([][]record, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				o, ok := claim(c)
				if !ok {
					return
				}
				if tr != nil {
					o.tr = tr.begin(o.id)
				}
				lat, err := w.run(&o)
				if o.tr != nil {
					o.tr.end()
				}
				perWorker[c] = append(perWorker[c], record{item: o.item, id: o.id, lat: lat, err: err})
			}
		}(c)
	}
	wg.Wait()
	out.wall = time.Since(start)
	for _, rs := range perWorker {
		out.recs = append(out.recs, rs...)
	}
	sort.Slice(out.recs, func(i, j int) bool { return out.recs[i].id < out.recs[j].id })
	for _, r := range out.recs {
		if r.err != nil {
			out.failed++
		}
	}
	return out
}

// nextPass is the first pass number after window w, which began at first.
func nextPass(first int, w window) int { return first + w.passes }

// percentile is the nearest-rank p-quantile (0 < p <= 1) of sorted xs.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, 0.5)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// span is one traced interval: a layer call inside an operation, or the
// operation's root. Times are nanoseconds since the tracer started.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"` // 0 for an operation's root span
	Op     uint64 `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps every span of a run in memory; they are written out when
// the run ends.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	ids   uint64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// opTrace is the root span of one traced operation.
type opTrace struct {
	t    *tracer
	root span
}

func (t *tracer) begin(opID uint64) *opTrace {
	t.mu.Lock()
	t.ids++
	id := t.ids
	t.mu.Unlock()
	return &opTrace{t: t, root: span{ID: id, Op: opID, Name: "op", Start: int64(time.Since(t.t0))}}
}

func (o *opTrace) end() {
	o.root.End = int64(time.Since(o.t.t0))
	o.t.add(o.root)
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// span times fn as a child of the operation's root span.
func (o *opTrace) span(name string, fn func() error) (time.Duration, error) {
	o.t.mu.Lock()
	o.t.ids++
	id := o.t.ids
	o.t.mu.Unlock()
	s := span{ID: id, Parent: o.root.ID, Op: o.root.Op, Name: name, Start: int64(time.Since(o.t.t0))}
	err := fn()
	s.End = int64(time.Since(o.t.t0))
	o.t.add(s)
	return s.dur(), err
}

// opSpans groups the tracer's spans by operation: for each op ID, the
// summed duration of each child span name, plus "op" for the root.
func (t *tracer) opSpans() map[uint64]map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[uint64]map[string]time.Duration{}
	for _, s := range t.spans {
		m := out[s.Op]
		if m == nil {
			m = map[string]time.Duration{}
			out[s.Op] = m
		}
		m[s.Name] += s.dur()
	}
	return out
}
