package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"time"

	"repro/internal/obs"
	"repro/internal/trace"
)

// Handler returns the service's HTTP API:
//
//	POST /v1/classify   classify a workload spec (JSON) or an uploaded
//	                    binary trace (any other content type) — NDJSON
//	POST /v1/sweep      run an experiment sweep — NDJSON
//	POST /v1/mrc        exact LRU miss-ratio curve with the MCT
//	                    conflict/capacity split per size, from a spec
//	                    (JSON) or an uploaded trace — NDJSON
//	GET  /v1/jobs/{id}  job status, attempts, partial failures
//	GET  /v1/trace/{job} the job's buffered trace spans — NDJSON
//	GET  /healthz       200 ok / 503 draining
//	GET  /metrics       Prometheus text exposition (version 0.0.4)
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	for _, ep := range endpoints {
		mux.HandleFunc("POST /v1/"+ep.kind, s.idempotent(s.serve(ep)))
	}
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/trace/{job}", s.handleTrace)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	// Internal peer-to-peer endpoints (cluster.go). Registered even when
	// single-node: a cell request is just "compute locally and memoize",
	// and a node with -peers empty may still be listed as a peer by others.
	mux.HandleFunc("POST /v1/cluster/cell", s.idempotent(s.handleClusterCell))
	mux.HandleFunc("GET /v1/cache/{key}", s.handleCacheGet)
	return mux
}

// statusFor maps the service's error taxonomy to HTTP statuses. It walks
// wrap chains with errors.Is, so a trace limit violation buried inside a
// TaskError inside a MultiError still reads as 413 — the reason
// MultiError's multi-branch Unwrap matters to the API layer.
func statusFor(err error) int {
	switch {
	case err == nil:
		return http.StatusOK
	case errors.Is(err, trace.ErrTraceTooLarge):
		return http.StatusRequestEntityTooLarge // 413
	case errors.Is(err, ErrBusy), errors.Is(err, ErrClientBusy), errors.Is(err, ErrQuota):
		return http.StatusTooManyRequests // 429
	case errors.Is(err, ErrDraining), errors.Is(err, ErrOverloaded):
		return http.StatusServiceUnavailable // 503
	case errors.Is(err, ErrBadRequest):
		return http.StatusBadRequest // 400
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout // 504
	case errors.Is(err, context.Canceled):
		return 499 // client closed request (nginx convention)
	default:
		return http.StatusInternalServerError // 500
	}
}

// errorBody is the JSON error envelope for non-streaming failures.
// JobID is present whenever the request got far enough to allocate a
// job, so a client holding a failed response can still GET
// /v1/jobs/{id} for the attempt/failure detail.
type errorBody struct {
	Error  string `json:"error"`
	Status int    `json:"status"`
	JobID  string `json:"job_id,omitempty"`
}

// retryAfterValue renders a duration as a Retry-After header value
// (whole seconds, minimum 1 — the header has no finer granularity).
func retryAfterValue(d time.Duration) string {
	secs := int((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

func writeErr(w http.ResponseWriter, err error) { writeErrJob(w, err, "") }

// writeErrJob writes the error envelope. Backpressure statuses carry a
// Retry-After hint (preserving any value a more specific layer — the
// brownout controller — already set): 429 means "this instance, soon",
// 503 means "this instance is draining or shedding, give it longer".
//
// Error responses never keep the connection alive. Most of them go out
// before the request body has been read to EOF, and with full duplex
// enabled (endpoints that take uploads) the server's post-handler body
// drain fires the deferred background-read hook right before the
// keep-alive peek — a connection-killing panic inside net/http (Go
// 1.24). Closing instead mirrors what the server does for undrained
// bodies without full duplex, and every caller here is an error or shed
// path where the client re-dialing is acceptable.
func writeErrJob(w http.ResponseWriter, err error, jobID string) {
	status := statusFor(err)
	w.Header().Set("Connection", "close")
	if w.Header().Get("Retry-After") == "" {
		switch status {
		case http.StatusTooManyRequests:
			w.Header().Set("Retry-After", retryAfterValue(time.Second))
		case http.StatusServiceUnavailable:
			w.Header().Set("Retry-After", retryAfterValue(2*time.Second))
		}
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(errorBody{Error: err.Error(), Status: status, JobID: jobID})
}

// clientID identifies the requester for per-client fairness: an explicit
// X-Mct-Client header, else the peer address without the port.
func clientID(r *http.Request) string {
	if c := r.Header.Get("X-Mct-Client"); c != "" {
		return c
	}
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
		return host
	}
	return r.RemoteAddr
}

// ndjsonWriter emits one JSON value per line, flushing each when it
// writes to a client, so clients see results as they exist rather than
// when the response buffer fills. Over a bytes.Buffer it renders the
// memoized body of a spec-path response.
type ndjsonWriter struct {
	w       io.Writer
	f       http.Flusher
	emitted uint64
}

func newNDJSONWriter(w http.ResponseWriter) *ndjsonWriter {
	f, _ := w.(http.Flusher)
	w.Header().Set("Content-Type", "application/x-ndjson")
	return &ndjsonWriter{w: w, f: f}
}

func (nw *ndjsonWriter) emit(v any) error {
	enc, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("service: encoding result line: %w", err)
	}
	if _, err := nw.w.Write(append(enc, '\n')); err != nil {
		return err
	}
	nw.emitted++
	if nw.f != nil {
		nw.f.Flush()
	}
	return nil
}

// createJob registers a job in the registry and the journal.
func (s *Service) createJob(id, kind, client, idem string) {
	s.jobs.CreateWithID(id, kind, client)
	if idem != "" {
		s.jobs.update(id, func(j *Job) { j.IdemKey = idem })
	}
	s.jlog.create(id, kind, client, idem)
}

// startJob marks a job running, journaling the spec so a crashed
// process can re-drive it (nil spec: the upload path, not re-drivable).
func (s *Service) startJob(id string, spec any) {
	s.jobs.Start(id)
	s.jlog.start(id, spec)
}

// stateOf maps a job's final error to its journal/registry state, the
// same taxonomy jobs.Finish applies.
func stateOf(err error) (JobState, string) {
	switch {
	case err == nil:
		return JobDone, ""
	case errors.Is(err, context.Canceled):
		return JobCanceled, err.Error()
	default:
		return JobFailed, err.Error()
	}
}

// finishJob records a job's outcome in the registry and the journal and
// feeds the retry metric.
func (s *Service) finishJob(id string, err error, records, emitted, hits, misses uint64) {
	s.jobs.Finish(id, err, records, emitted, hits, misses)
	state, errText := stateOf(err)
	s.jlog.finish(id, state, errText)
	if err != nil {
		fails, _ := failuresOf(err)
		s.noteRetries(fails)
	}
}

// admit runs the admission gate under a span and the admission-wait
// histogram — time spent here is backpressure, visible whether the
// request was accepted or rejected.
func (s *Service) admit(ctx context.Context, client string) (func(), error) {
	t0 := time.Now()
	_, sp := obs.Start(ctx, "service.admit")
	release, err := s.adm.Admit(ctx, client)
	sp.Err(err)
	sp.End()
	s.hAdmit.ObserveDuration(time.Since(t0))
	return release, err
}

// handleJob serves GET /v1/jobs/{id}.
func (s *Service) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	job, ok := s.jobs.Get(id)
	if !ok {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusNotFound)
		_ = json.NewEncoder(w).Encode(errorBody{Error: fmt.Sprintf("unknown job %q (evicted or never created)", id), Status: http.StatusNotFound})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(job)
}

// handleHealthz serves GET /healthz: 503 once draining so load
// balancers route away while in-flight work finishes.
func (s *Service) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if s.adm.Draining() {
		w.WriteHeader(http.StatusServiceUnavailable)
		_, _ = w.Write([]byte(`{"status":"draining"}` + "\n"))
		return
	}
	_, _ = w.Write([]byte(`{"status":"ok"}` + "\n"))
}

// handleMetrics serves GET /metrics: the Prometheus text exposition
// (version 0.0.4), the service's only metrics surface. A
// ?format=prometheus query (perfbench, loadgen and mctload send one) is
// accepted and ignored. Metrics never sit behind the admission gate — a
// draining or saturated instance must still be observable.
func (s *Service) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.reg.WriteText(w)
}

// handleTrace serves GET /v1/trace/{job}: the job's spans still held by
// the bounded ring, oldest first, as NDJSON. A known job whose spans
// have been evicted returns an empty body — the ring is a tail, not an
// archive.
func (s *Service) handleTrace(w http.ResponseWriter, r *http.Request) {
	if s.shed(w, r, true) {
		return
	}
	id := r.PathValue("job")
	recs := s.ring.ByTrace(id)
	if _, ok := s.jobs.Get(id); !ok && len(recs) == 0 {
		// Unknown here AND no spans: truly unknown. A forwarded cell's
		// spans land on its owner under the origin's job ID without a
		// local job record, so spans alone are enough to serve the trace.
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusNotFound)
		_ = json.NewEncoder(w).Encode(errorBody{Error: fmt.Sprintf("unknown job %q (evicted or never created)", id), Status: http.StatusNotFound})
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	for _, rec := range recs {
		_ = enc.Encode(rec)
	}
}
