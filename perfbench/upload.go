package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"repro/internal/cache"
	"repro/internal/classify"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// uploadBenches are the suite workloads whose traces trace-upload posts:
// a spread of miss mixes, from conflict-bound (tomcatv, swim) through
// capacity-bound (compress, mgrid) to mostly-hitting (li, perl).
var uploadBenches = []string{"tomcatv", "swim", "compress", "mgrid", "gcc", "li", "perl", "vortex"}

// uploadInstructions is the length of each posted trace.
const uploadInstructions = 300_000

// uploadCache is the geometry the service's upload path defaults to when
// the query names none: 32 KB, 2-way, 64-byte lines, modulo indexing.
func uploadCache() cache.Config {
	return cache.Config{Name: "L1D", Size: 32 * 1024, LineSize: 64, Assoc: 2}
}

// traceUpload posts pre-rendered v2 trace images to /v1/classify; one
// operation is one upload of one image.
type traceUpload struct {
	srv    *server
	images [][]byte
	ref    []service.ClassifySummary // sim.ClassifyBatched over each image
}

func newTraceUpload(seed uint64, dir string) (*traceUpload, error) {
	u := &traceUpload{
		images: make([][]byte, len(uploadBenches)),
		ref:    make([]service.ClassifySummary, len(uploadBenches)),
	}
	errs := make([]error, len(uploadBenches))
	parallel(len(uploadBenches), func(i int) {
		b, _ := workload.ByName(uploadBenches[i])
		u.images[i] = renderImage(b.Stream(deriveSeed(seed, "trace-upload", uint64(i))), uploadInstructions)
		u.ref[i], errs[i] = classifyImage(u.images[i])
	})
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	var err error
	if u.srv, err = startServer(dir); err != nil {
		return nil, err
	}
	return u, nil
}

// classifyImage is the in-process reference for one image: what the
// service's summary line must report.
func classifyImage(img []byte) (service.ClassifySummary, error) {
	m, err := trace.OpenMapped(img, trace.Limits{})
	if err != nil {
		return service.ClassifySummary{}, err
	}
	run, err := classify.NewRun(uploadCache(), 0)
	if err != nil {
		return service.ClassifySummary{}, err
	}
	n := sim.ClassifyBatched(run, m, 0)
	return service.ClassifySummary{
		Accesses:    n,
		Misses:      run.Acc.Misses(),
		Conflict:    run.Acc.ConflictTotal,
		Capacity:    run.Acc.CapacityTotal,
		Compulsory:  run.Acc.CompulsoryTotal,
		ConflictAcc: run.Acc.ConflictAccuracy(),
		CapacityAcc: run.Acc.CapacityAccuracy(),
		OverallAcc:  run.Acc.OverallAccuracy(),
	}, nil
}

func (u *traceUpload) passLen() int    { return len(u.images) }
func (u *traceUpload) close()          { u.srv.close() }
func (u *traceUpload) server() *server { return u.srv }
func (u *traceUpload) e2eSpan() string { return "http.post" }

// digest is a SHA-256 over the reference summaries of every image.
func (u *traceUpload) digest() string {
	h := sha256.New()
	for i, s := range u.ref {
		fmt.Fprintf(h, "%s %+v\n", uploadBenches[i], s)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func (u *traceUpload) run(o *op) (time.Duration, error) {
	var body []byte
	var lat time.Duration
	var err error
	post := func() error {
		body, lat, err = u.srv.post(o.worker, "/v1/classify?emit=summary", "application/octet-stream", u.images[o.item])
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
	var got struct {
		Summary service.ClassifySummary `json:"summary"`
	}
	if jerr := json.Unmarshal(body, &got); jerr != nil || got.Summary != u.ref[o.item] {
		return lat, fmt.Errorf("trace-upload %s: summary %+v, want %+v: %w", uploadBenches[o.item], got.Summary, u.ref[o.item], errCheck)
	}
	if o.tr != nil {
		return lat, u.traceLayers(o)
	}
	return lat, nil
}

// traceLayers replays the operation's image through the two layers the
// upload crosses: the streaming decoder alone, and the classify kernel
// alone over the mapped image.
func (u *traceUpload) traceLayers(o *op) error {
	img := u.images[o.item]
	_, err := o.tr.span("trace.decode", func() error {
		rd, err := trace.NewReaderContext(context.Background(), bytes.NewReader(img), trace.Limits{})
		if err != nil {
			return err
		}
		b := trace.NewBatch(trace.DefaultBatchSize)
		for rd.ReadBatch(b, trace.DefaultBatchSize) > 0 {
		}
		return rd.Err()
	})
	if err != nil {
		return fmt.Errorf("trace-upload: decoding image: %w", err)
	}
	var sum service.ClassifySummary
	if _, err = o.tr.span("classify.kernel", func() error {
		sum, err = classifyImage(img)
		return err
	}); err != nil {
		return err
	}
	if sum != u.ref[o.item] {
		return fmt.Errorf("trace-upload %s: kernel replay differs from setup: %w", uploadBenches[o.item], errCheck)
	}
	return nil
}

// counts are the exact classify totals over one pass (every image once).
func (u *traceUpload) counts() map[string]float64 {
	var acc, misses, conflict uint64
	for _, s := range u.ref {
		acc += s.Accesses
		misses += s.Misses
		conflict += s.Conflict
	}
	return map[string]float64{
		"classify.accesses": float64(acc),
		"classify.misses":   float64(misses),
		"classify.conflict": float64(conflict),
	}
}

func (u *traceUpload) layers(w window, ops map[uint64]map[string]time.Duration, before, after promSnap) map[string]float64 {
	var decode, kernel time.Duration
	var records, accesses uint64
	var gaps []float64
	for _, r := range w.recs {
		if r.err != nil {
			continue
		}
		s := ops[r.id]
		decode += s["trace.decode"]
		kernel += s["classify.kernel"]
		gaps = append(gaps, ms(s["http.post"]-s["trace.decode"]-s["classify.kernel"]))
		records += uploadInstructions
		accesses += u.ref[r.item].Accesses
	}
	m := serverLayers(before, after)
	for k, v := range u.counts() {
		m[k] = v
	}
	m["service.upload_unattributed_ms"] = median(gaps)
	m["trace.decode_ns_per_record"] = float64(decode) / float64(records)
	m["classify.kernel_ns_per_access"] = float64(kernel) / float64(accesses)
	return m
}
