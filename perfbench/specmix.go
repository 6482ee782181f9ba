package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/cache"
	"repro/internal/classify"
	"repro/internal/mem"
	"repro/internal/mrc"
	"repro/internal/runner"
	"repro/internal/service"
	"repro/internal/trace"
	"repro/internal/workload"
)

// spec-mix operation classes.
const (
	warmSummary = iota
	warmMisses
	warmMRC
	cold
	numClasses
)

var classNames = [numClasses]string{"warm_summary", "warm_misses", "warm_mrc", "cold"}

// The spec-mix pool. Each pass sends every warm key once plus one cold
// request per cold workload, so a pass is 8 summary + 3 misses + 5 MRC
// replays and 4 never-seen MRC specs. Cold requests go to /v1/mrc, which
// has no batcher, so their compute never holds a warm classify replay
// in its batch. Sorted by latency the classes fall into bands (MRC
// replay ~0.3 ms, summary ~3 ms, misses ~5 ms, cold ~10 ms) holding ranks
// 0-25%, 25-65%, 65-80% and 80-100%: p50 sits inside the warm-summary
// band, p90 in the middle of the cold band, and no class takes half of
// the wall time.
var (
	summaryBenches = []string{"gcc", "swim", "li", "tomcatv", "compress", "perl", "mgrid", "vortex"}
	missesBenches  = []string{"tomcatv", "swim", "compress"}
	mrcBenches     = []string{"gcc", "swim", "li", "tomcatv", "vortex"}
	coldBenches    = []string{"gcc", "compress", "li", "swim"}
	mrcSizesKB     = []int{4, 8, 16, 32, 64, 128, 256}
	coldSizesKB    = []int{8, 32, 128}
)

const (
	summaryAccesses = 50_000
	missesAccesses  = 8_000
	mrcAccesses     = 100_000
	coldAccesses    = 30_000
)

// mixItem is one slot of a spec-mix pass: a class and its key (the pool
// index, or for cold the cold-workload index).
type mixItem struct{ class, key int }

// specMix sends JSON-spec requests to the in-process service.
type specMix struct {
	seed  uint64
	srv   *server
	items []mixItem
	specs [numClasses][][]byte // warm request bodies by class and key
	warm  [numClasses][][]byte // prefill response bodies by class and key

	// Traced runs only: a private memo cache holding payloads the size of
	// the pool's bodies.
	memo *runner.Cache
}

func newSpecMix(seed uint64, dir string) (*specMix, error) {
	x := &specMix{seed: seed}
	add := func(class int, benches []string, spec func(b string, s uint64) any) {
		for i, b := range benches {
			x.items = append(x.items, mixItem{class, i})
			if spec != nil {
				body, _ := json.Marshal(spec(b, deriveSeed(seed, classNames[class], uint64(i))))
				x.specs[class] = append(x.specs[class], body)
			}
		}
	}
	add(warmSummary, summaryBenches, func(b string, s uint64) any {
		return service.ClassifySpec{Workload: b, Accesses: summaryAccesses, Seed: s, Emit: service.EmitSummary}
	})
	add(warmMisses, missesBenches, func(b string, s uint64) any {
		return service.ClassifySpec{Workload: b, Accesses: missesAccesses, Seed: s, Emit: service.EmitMisses}
	})
	add(warmMRC, mrcBenches, func(b string, s uint64) any {
		return service.MRCSpec{Workload: b, Accesses: mrcAccesses, Seed: s, SizesKB: mrcSizesKB}
	})
	add(cold, coldBenches, nil)

	var err error
	if x.srv, err = startServer(dir); err != nil {
		return nil, err
	}
	// Prefill: every warm key computes once; its response is the body
	// every later replay must match byte for byte.
	for class := 0; class < cold; class++ {
		for key, spec := range x.specs[class] {
			body, _, err := x.srv.post(0, classPath(class), "application/json", spec)
			if err == nil && class == warmMRC {
				_, err = checkMRC(body, mrcAccesses, len(mrcSizesKB))
			}
			if err != nil {
				x.close()
				return nil, fmt.Errorf("spec-mix prefill %s/%d: %w", classNames[class], key, err)
			}
			x.warm[class] = append(x.warm[class], bytes.Clone(body))
		}
	}
	return x, nil
}

func classPath(class int) string {
	if class == warmMRC || class == cold {
		return "/v1/mrc"
	}
	return "/v1/classify"
}

func (x *specMix) passLen() int    { return len(x.items) }
func (x *specMix) close()          { x.srv.close() }
func (x *specMix) server() *server { return x.srv }
func (x *specMix) className(item int) string {
	return classNames[x.items[item].class]
}
func (x *specMix) e2eSpan() string { return "http.post" }

// digest is a SHA-256 over every warm key's prefill response.
func (x *specMix) digest() string {
	h := sha256.New()
	for class := range x.warm {
		for _, body := range x.warm[class] {
			h.Write(body)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// coldSpec is the never-seen MRC spec of cold slot key in pass p: its
// seed is unique to (run seed, pass, slot), so it computes exactly once
// and writes one memo entry.
func (x *specMix) coldSpec(p, key int) service.MRCSpec {
	return service.MRCSpec{
		Workload: coldBenches[key],
		Accesses: coldAccesses,
		Seed:     deriveSeed(x.seed, "cold", uint64(p*len(coldBenches)+key)),
		SizesKB:  coldSizesKB,
	}
}

func (x *specMix) run(o *op) (time.Duration, error) {
	it := x.items[o.item]
	var reqBody []byte
	var coldReq service.MRCSpec
	if it.class == cold {
		coldReq = x.coldSpec(o.pass, it.key)
		reqBody, _ = json.Marshal(coldReq)
	} else {
		reqBody = x.specs[it.class][it.key]
	}
	var body []byte
	var lat time.Duration
	var err error
	post := func() error {
		body, lat, err = x.srv.post(o.worker, classPath(it.class), "application/json", reqBody)
		return err
	}
	if o.tr == nil {
		post()
	} else {
		o.tr.span("http.post", post)
	}
	if err != nil {
		return lat, err
	}
	if it.class != cold {
		if !bytes.Equal(body, x.warm[it.class][it.key]) {
			return lat, fmt.Errorf("spec-mix %s/%d: replay differs from the prefill response: %w", classNames[it.class], it.key, errCheck)
		}
		if o.tr != nil {
			return lat, x.traceWarm(o, it)
		}
		return lat, nil
	}
	points, err := checkMRC(body, coldAccesses, len(coldSizesKB))
	if err != nil {
		return lat, fmt.Errorf("spec-mix cold %s: %w", coldReq.Workload, err)
	}
	if o.tr != nil {
		return lat, x.traceCold(o, coldReq, points, body)
	}
	return lat, nil
}

// mrcPoint is the part of an MRC response point the checks read.
type mrcPoint struct {
	SizeKB    int     `json:"size_kb"`
	MissRatio float64 `json:"miss_ratio"`
	MCT       struct {
		Accesses, Misses, Conflict, Capacity, Compulsory uint64
	} `json:"mct"`
}

// checkMRC validates an MRC response: it holds one point per requested
// size over the requested accesses, the sampled miss ratio never rises
// with cache size, and at every size the oracle's split sums to the
// misses, which never exceed the accesses.
func checkMRC(body []byte, accesses uint64, sizes int) ([]mrcPoint, error) {
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(nil, 1<<20)
	var points []mrcPoint
	var summary *service.MRCSummary
	for sc.Scan() {
		var line struct {
			Point   *mrcPoint           `json:"point"`
			Summary *service.MRCSummary `json:"summary"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return nil, fmt.Errorf("mrc line %q: %v: %w", sc.Bytes(), err, errCheck)
		}
		if line.Summary != nil {
			summary = line.Summary
		}
		if p := line.Point; p != nil {
			m := p.MCT
			if (len(points) > 0 && p.MissRatio > points[len(points)-1].MissRatio) ||
				m.Conflict+m.Capacity+m.Compulsory != m.Misses || m.Misses > m.Accesses || m.Accesses != accesses {
				return nil, fmt.Errorf("mrc point at %d KB is inconsistent: %+v: %w", p.SizeKB, *p, errCheck)
			}
			points = append(points, *p)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(points) != sizes || summary == nil || summary.Accesses != accesses {
		return nil, fmt.Errorf("mrc response has %d points (want %d) and summary %+v: %w", len(points), sizes, summary, errCheck)
	}
	return points, nil
}

// memoEntry has the shape of the service's memoized artifacts: a rendered
// response body.
type memoEntry struct {
	Body []byte `json:"body"`
}

type memoKey struct {
	Class, Key int
	Seed       uint64
}

// prepTrace fills the private memo cache with one entry per warm key, the
// size of that key's response.
func (x *specMix) prepTrace(dir string) error {
	x.memo = runner.Open(filepath.Join(dir, "memo-probe"))
	for class := 0; class < cold; class++ {
		for key, body := range x.warm[class] {
			if _, _, err := runner.Memo(x.memo, "perfbench-hit", memoKey{Class: class, Key: key}, func() (memoEntry, error) {
				return memoEntry{Body: body}, nil
			}); err != nil {
				return err
			}
		}
	}
	return nil
}

// traceWarm times what a warm replay costs below HTTP: one memo hit of a
// payload the size of the response.
func (x *specMix) traceWarm(o *op, it mixItem) error {
	name := "runner.memo_hit"
	if it.class == warmMisses {
		name = "runner.memo_hit_large"
	}
	var hit bool
	_, err := o.tr.span(name, func() error {
		var err error
		_, hit, err = runner.Memo(x.memo, "perfbench-hit", memoKey{Class: it.class, Key: it.key}, func() (memoEntry, error) {
			return memoEntry{}, fmt.Errorf("probe entry %s/%d missing", classNames[it.class], it.key)
		})
		return err
	})
	if err != nil || !hit {
		return fmt.Errorf("spec-mix memo probe: hit=%v: %v: %w", hit, err, errCheck)
	}
	return nil
}

// traceCold replays a cold operation's compute below HTTP, layer by
// layer: the stream's generation, the SHARDS profiler over it, the
// classify kernel at each requested size (whose miss counts must agree
// with the response), and the memo miss plus store of the body.
func (x *specMix) traceCold(o *op, spec service.MRCSpec, points []mrcPoint, body []byte) error {
	b, _ := workload.ByName(spec.Workload)
	var addrs []mem.Addr
	var stores []bool
	o.tr.span("workload.gen", func() error {
		s := trace.NewLimit(trace.NewMemOnly(b.Stream(spec.Seed)), spec.Accesses)
		var in trace.Instr
		for s.Next(&in) {
			addrs = append(addrs, in.Addr)
			stores = append(stores, in.Op == trace.Store)
		}
		return nil
	})
	o.tr.span("mrc.observe", func() error {
		p := mrc.New(mrc.Config{})
		for i := 0; i < len(addrs); i += trace.DefaultBatchSize {
			p.ObserveBatch(addrs[i:min(i+trace.DefaultBatchSize, len(addrs))])
		}
		return nil
	})
	for i, kb := range spec.SizesKB {
		var run *classify.Run
		_, err := o.tr.span("classify.kernel", func() error {
			var err error
			if run, err = classify.NewRun(cache.Config{Name: "L1D", Size: kb * 1024, LineSize: 64, Assoc: 2}, 0); err != nil {
				return err
			}
			for j := 0; j < len(addrs); j += trace.DefaultBatchSize {
				end := min(j+trace.DefaultBatchSize, len(addrs))
				run.AccessBatch(addrs[j:end], stores[j:end])
			}
			return nil
		})
		if err != nil {
			return err
		}
		_, _, conflict := run.Oracle.Counts()
		if run.Acc.Misses() != points[i].MCT.Misses || conflict != points[i].MCT.Conflict {
			return fmt.Errorf("spec-mix cold %s at %d KB: kernel replay disagrees with the response: %w", spec.Workload, kb, errCheck)
		}
	}
	var hit bool
	_, err := o.tr.span("runner.memo_store", func() error {
		var err error
		_, hit, err = runner.Memo(x.memo, "perfbench-store", memoKey{Class: cold, Key: o.item, Seed: spec.Seed}, func() (memoEntry, error) {
			return memoEntry{Body: body}, nil
		})
		return err
	})
	if err != nil || hit {
		return fmt.Errorf("spec-mix memo store probe: hit=%v: %v: %w", hit, err, errCheck)
	}
	return nil
}

// checkWindow compares the service's memo counters across a window with
// the operations sent: every cold operation must have computed exactly
// once and every warm one replayed. It returns the discrepancy.
func (x *specMix) checkWindow(w window, before, after promSnap) int {
	var colds, warms int
	for _, r := range w.recs {
		if x.items[r.item].class == cold {
			colds++
		} else {
			warms++
		}
	}
	misses := int(after["mct_cache_misses_total"] - before["mct_cache_misses_total"])
	hits := int(after["mct_cache_hits_total"] - before["mct_cache_hits_total"])
	return abs(misses-colds) + abs(hits-warms)
}

func abs(n int) int {
	if n < 0 {
		return -n
	}
	return n
}

func (x *specMix) layers(w window, ops map[uint64]map[string]time.Duration, before, after promSnap) map[string]float64 {
	m := serverLayers(before, after)
	m["service.batch_size_mean"] = meanDelta(before, after, "mct_classify_batch_size", 1)
	m["service.mrc_mean_ms"] = meanDelta(before, after, "mct_mrc_duration_seconds", 1e3)
	hits := after["mct_cache_hits_total"] - before["mct_cache_hits_total"]
	misses := after["mct_cache_misses_total"] - before["mct_cache_misses_total"]
	m["service.memo_hit_ratio"] = hits / (hits + misses)

	var sum [numClasses][]float64
	spans := map[string]time.Duration{}
	counts := map[string]int{}
	var kernelAccesses, observeRefs int
	for _, r := range w.recs {
		if r.err != nil {
			continue
		}
		it := x.items[r.item]
		s := ops[r.id]
		sum[it.class] = append(sum[it.class], ms(s["http.post"]))
		for name, d := range s {
			spans[name] += d
			counts[name]++
		}
		if it.class == cold {
			kernelAccesses += coldAccesses * len(coldSizesKB)
			observeRefs += coldAccesses
		}
	}
	for c, lats := range sum {
		m["class."+classNames[c]+"_p50_ms"] = median(lats)
	}
	mean := func(name string, unit time.Duration) float64 {
		return float64(spans[name]) / float64(counts[name]) / float64(unit)
	}
	m["runner.memo_hit_us"] = mean("runner.memo_hit", time.Microsecond)
	m["runner.memo_hit_large_ms"] = mean("runner.memo_hit_large", time.Millisecond)
	m["runner.memo_store_us"] = mean("runner.memo_store", time.Microsecond)
	m["classify.kernel_ns_per_access"] = float64(spans["classify.kernel"]) / float64(kernelAccesses)
	m["mrc.observe_ns_per_ref"] = float64(spans["mrc.observe"]) / float64(observeRefs)
	return m
}
