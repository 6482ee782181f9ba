package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/trace"
)

// This file is the request pipeline. Every NDJSON endpoint is one row of
// the endpoint table, and one handler (serve) runs every row through the
// same sequence: shed → client/job ID → root span http.<kind> → reqMeta
// → duration histogram → tenant precheck (metered rows) → admit →
// createJob → spec-or-upload split → decode → normalize → startJob →
// memo or stream → finishJob. The journal's redrive and the cluster's
// forwarded-cell handler look rows up here too, so request timing,
// tenant charging and idempotency each live in one place and a new
// endpoint is one table entry.

// endpoint is one row of the table: everything that differs between
// /v1/classify, /v1/sweep and /v1/mrc.
type endpoint struct {
	// kind is the route (/v1/<kind>), the job kind, the root span
	// http.<kind>, the task-label prefix <kind>/..., and the duration
	// histogram mct_<kind>_duration_seconds; title names the endpoint in
	// that histogram's help text.
	kind, title string
	// slug keys a single-cell endpoint's spec in the memo cache and on
	// the hash ring. Empty for sweep, whose cells are experiment slugs.
	slug string
	// newSpec returns the zero spec a JSON body decodes into.
	newSpec func() spec
	// cell maps a normalized spec of a single-cell endpoint — the whole
	// request is one memoizable cell — onto that cell.
	cell func(s *Service, sp spec) cell
	// fanout runs a normalized spec of a multi-cell endpoint (sweep).
	fanout func(s *Service, ctx context.Context, sp spec) (outcome, error)
	// upload, when set, accepts a binary trace body: it maps the query
	// parameters onto a normalized spec and returns the kernel the trace
	// streams through. Nil means the endpoint takes JSON specs only.
	upload func(s *Service, q url.Values) (streamFunc, error)
	// metered endpoints resolve a tenant, precheck its quota before
	// admission, and charge it for cold computes and uploads.
	metered bool
}

// endpoints is the table, in route-registration (and metric) order.
// Built in init: the rows' functions reach resolveCell, which looks rows
// up by slug, so a plain initializer would be an initialization cycle.
var endpoints []*endpoint

func init() {
	endpoints = []*endpoint{{
		kind: "classify", title: "Classify", slug: classifySlug,
		newSpec: func() spec { return new(ClassifySpec) },
		cell: func(s *Service, sp spec) cell {
			c := *sp.(*ClassifySpec)
			return newCell("classify/"+c.Workload, classifySlug, c, func(ctx context.Context) (json.RawMessage, error) {
				return s.streamRaw(ctx, c.stream, workloadStream(c.Workload, c.Seed, c.Accesses))
			})
		},
		upload: func(s *Service, q url.Values) (streamFunc, error) {
			var c ClassifySpec
			err := c.fromQuery(q)
			return c.stream, err
		},
	}, {
		kind: "sweep", title: "Sweep",
		newSpec: func() spec { return new(SweepSpec) },
		fanout: func(s *Service, ctx context.Context, sp spec) (outcome, error) {
			return s.sweep(ctx, sp.(*SweepSpec))
		},
	}, {
		kind: "mrc", title: "MRC", slug: mrcSlug, metered: true,
		newSpec: func() spec { return new(MRCSpec) },
		cell: func(s *Service, sp spec) cell {
			m := *sp.(*MRCSpec)
			return newCell("mrc/"+m.Workload, mrcSlug, m, func(ctx context.Context) (json.RawMessage, error) {
				return s.streamRaw(ctx, m.stream, workloadStream(m.Workload, m.Seed, m.Accesses))
			})
		},
		upload: func(s *Service, q url.Values) (streamFunc, error) {
			var m MRCSpec
			err := m.fromQuery(q)
			return m.stream, err
		},
	}}
}

// endpointByKind finds the row a journaled job's kind names.
func endpointByKind(kind string) *endpoint {
	for _, ep := range endpoints {
		if ep.kind == kind {
			return ep
		}
	}
	return nil
}

// endpointBySlug finds the single-cell row whose memo slug this is; nil
// for experiment slugs (sweep cells).
func endpointBySlug(slug string) *endpoint {
	for _, ep := range endpoints {
		if ep.slug != "" && ep.slug == slug {
			return ep
		}
	}
	return nil
}

// spec is a decoded spec-path request body. prepare normalizes it
// against the service's limits; the normalized value is what the
// journal records and, for single-cell endpoints, the memo payload.
type spec interface {
	prepare(s *Service) error
}

// streamFunc runs one access source through an endpoint's kernel,
// emitting NDJSON records in order.
type streamFunc func(ctx context.Context, src trace.AccessSource, emit func(v any) error) (stats, error)

// stats counts a request's work for job accounting and tenant charging.
type stats struct {
	Records uint64 `json:"records"`
	Emitted uint64 `json:"emitted"`
}

// artifact is the memoized product of a single-cell spec: the complete,
// pre-rendered NDJSON response body plus its work counts. Caching the
// rendered bytes (rather than re-rendering on hit) makes the cold-vs-warm
// byte-identity property trivially true: the handler decodes the same
// stored bytes whether the result was computed or replayed, so it writes
// literally the same body either way. An artifact
// held by the memory tier is shared by every request that hits it, so
// Body is read-only once resolved: handlers write it, never modify it.
type artifact struct {
	Body  []byte `json:"body"`
	Stats stats  `json:"stats"`
}

// outcome is a spec-path request's result: the response body, its work
// counts, and the memo traffic it caused. A multi-cell run can fail
// partially and still have a body (error records for the failed cells).
type outcome struct {
	body         []byte
	stats        stats
	hits, misses uint64
}

// run executes a normalized spec: a single-cell endpoint's cell as one
// supervised task, or the endpoint's fan-out.
func (ep *endpoint) run(s *Service, ctx context.Context, sp spec) (outcome, error) {
	if ep.cell != nil {
		return s.resolveSpec(ctx, ep.cell(s, sp))
	}
	return ep.fanout(s, ctx, sp)
}

// serve is the one HTTP handler behind every table row. A JSON body is
// a spec; any other body (on rows that take uploads) is a binary trace.
// Either way the response is NDJSON and the job ID rides the X-Mct-Job
// header, never the body, which must be byte-identical between cold and
// cache-warm runs. Every failure after the job ID exists is recorded on
// the root span, so /v1/trace/{job} shows why a job failed.
func (s *Service) serve(ep *endpoint) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		streaming := ep.upload != nil && !strings.HasPrefix(r.Header.Get("Content-Type"), "application/json")
		if ep.upload != nil {
			// Full duplex from the start: without it, HTTP/1's response
			// path synchronously drains any unread request body before the
			// first response byte goes out — an admission rejection of a
			// slow or withheld upload would block on the client instead of
			// returning 429 immediately. (HTTP/2 is duplex natively;
			// ErrNotSupported is fine.)
			_ = http.NewResponseController(w).EnableFullDuplex()
		}
		// Brownout gate before any real work: uploads count as streaming
		// (shed first), JSON specs shed only at the low-priority level.
		if s.shed(w, r, streaming) {
			return
		}
		var tenant string
		if ep.metered {
			var err error
			if tenant, err = tenantID(r); err != nil {
				writeErr(w, err)
				return
			}
		}

		client := clientID(r)
		id := s.jobs.NewID()
		ctx, root := obs.Start(obs.Inject(r.Context(), s.ring, id), "http."+ep.kind)
		root.Str("client", client)
		if ep.metered {
			root.Str("tenant", tenant)
		}
		defer root.End()
		// Carry the caller's identity into the fan-out: forwarded cells
		// propagate the job/trace ID, idempotency key, and priority
		// (cluster.go).
		ctx = withReqMeta(ctx, reqMeta{jobID: id, idemKey: r.Header.Get(IdemHeader), priority: r.Header.Get(PriorityHeader)})
		r = r.WithContext(ctx)
		defer func(t0 time.Time) { s.hReq[ep.kind].ObserveDuration(time.Since(t0)) }(time.Now())

		root.Err(s.admitted(w, r, ep, id, client, tenant, streaming))
	}
}

// admitted runs a request from the quota and admission gates to its
// last byte and returns its error, nil on success.
func (s *Service) admitted(w http.ResponseWriter, r *http.Request, ep *endpoint, id, client, tenant string, streaming bool) error {
	if ep.metered {
		s.mrcReqs.Add(1)
		// Quota gate in front of admission: a tenant already over budget
		// is rejected before it can occupy an admission slot.
		if err := s.tenants.precheck(tenant); err != nil {
			s.quotaRejects.Add(1)
			writeErr(w, err)
			return err
		}
	}
	release, err := s.admit(r.Context(), client)
	if err != nil {
		writeErr(w, err)
		return err
	}
	defer release()

	s.createJob(id, ep.kind, client, r.Header.Get(IdemHeader))
	w.Header().Set("X-Mct-Job", id)
	if streaming {
		return s.serveUpload(w, r, ep, id, tenant)
	}
	return s.serveSpec(w, r, ep, id, tenant)
}

// serveSpec handles a JSON spec: decoded, normalized, journaled, then
// resolved through the memo cache (single-cell rows) or fanned out.
func (s *Service) serveSpec(w http.ResponseWriter, r *http.Request, ep *endpoint, id, tenant string) error {
	sp := ep.newSpec()
	err := s.decodeSpec(http.MaxBytesReader(w, r.Body, 1<<20), sp)
	var out outcome
	if err == nil {
		s.startJob(id, sp)
		out, err = ep.run(s, r.Context(), sp)
	}
	if err != nil && out.body == nil {
		return s.reject(w, id, err)
	}
	if ep.metered && out.misses > 0 {
		// Charge only cold computes: a warm hit replays cached bytes
		// without reprocessing a single access. Record-then-compare
		// semantics mean an over-budget result still serves — the NEXT
		// request hits the precheck.
		_ = s.tenants.charge(tenant, out.stats.Records, 0)
	}
	// The body is complete in memory, so the job is final before its
	// first byte goes out: a client that has seen any of the response
	// reads the job's final state from /v1/jobs. A failed write is the
	// request's error (the root span's), not the job's.
	s.finishJob(id, err, out.stats.Records, out.stats.Emitted, out.hits, out.misses)
	w.Header().Set("Content-Type", "application/x-ndjson")
	if _, werr := w.Write(out.body); err == nil {
		err = werr
	}
	return err
}

// serveUpload handles a binary-trace body: an MCTR trace streamed
// through the endpoint's kernel as it is read — never buffered, never
// memoized (the trace's content is unknown until it has been processed).
// Limit violations and malformed headers fail before any response byte;
// mid-stream failures append a trailing error record.
func (s *Service) serveUpload(w http.ResponseWriter, r *http.Request, ep *endpoint, id, tenant string) error {
	stream, err := ep.upload(s, r.URL.Query())
	if err != nil {
		return s.reject(w, id, err)
	}
	// No spec in the journal: the trace bytes live only in this request
	// body, so the job is not re-drivable after a crash.
	s.startJob(id, nil)
	body := &countingReader{r: r.Body}
	rd, err := trace.NewReaderContext(r.Context(), body, s.cfg.Limits)
	if err != nil {
		if !errors.Is(err, trace.ErrTraceTooLarge) && !errors.Is(err, context.Canceled) {
			err = fmt.Errorf("%w: %v", ErrBadRequest, err)
		}
		return s.reject(w, id, err)
	}
	var src trace.BatchSource = rd
	if ep.metered {
		src = &meteredSource{BatchSource: rd, s: s, tenant: tenant, body: body}
	}
	nw := newNDJSONWriter(w)
	_, sp := obs.Start(r.Context(), ep.kind+".upload")
	st, err := stream(r.Context(), trace.NewRecordAccesses(src), nw.emit)
	sp.Int("records", int64(st.Records))
	sp.Err(err)
	sp.End()
	if err != nil {
		// The status line is long gone; the error becomes the last record
		// and the job's failure state.
		_ = nw.emit(errorBody{Error: err.Error(), Status: statusFor(err)})
		s.finishJob(id, err, st.Records, nw.emitted, 0, 0)
		return err
	}
	s.records.Add(st.Records)
	s.finishJob(id, nil, st.Records, nw.emitted, 0, 0)
	return nil
}

// reject fails a job before its first response byte: the job records
// the error and the client gets the error envelope naming the job.
func (s *Service) reject(w http.ResponseWriter, id string, err error) error {
	s.finishJob(id, err, 0, 0, 0, 0)
	writeErrJob(w, err, id)
	return err
}

// decodeSpec decodes a JSON spec strictly — an unknown field is a 400 —
// and normalizes it. Request bodies, journaled specs and forwarded cell
// payloads all come through here.
func (s *Service) decodeSpec(r io.Reader, sp spec) error {
	if err := decodeStrict(r, sp); err != nil {
		return fmt.Errorf("%w: decoding spec: %v", ErrBadRequest, err)
	}
	return sp.prepare(s)
}

func decodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// cell is one memoizable unit of work: a whole classify or mrc spec, or
// one sweep experiment at concrete parameters. label is its supervised
// task label (classify/<workload>, mrc/<workload>, sweep/<id>), the key
// fault injection and the slow-task log match on. key is the memo key of
// (slug, payload), derived once when the cell is built; keyErr is set
// instead when the payload cannot be keyed, and resolving the cell
// fails with it.
type cell struct {
	label   string
	slug    string
	key     string
	keyErr  error
	payload any
	// compute returns the cell's result as json.Marshal output: the
	// bytes the memo cache stores as they are.
	compute func(ctx context.Context) (json.RawMessage, error)
}

// newCell builds a cell and derives its memo key: the one runner.Key
// call any resolution of the cell makes.
func newCell(label, slug string, payload any, compute func(ctx context.Context) (json.RawMessage, error)) cell {
	key, err := runner.Key(slug, payload)
	return cell{label: label, slug: slug, key: key, keyErr: err, payload: payload, compute: compute}
}

// resolveSpec resolves a single-cell spec as one supervised runner task
// around the memo: exactly one memo hit or miss per request, whether the
// memory tier or the disk cache answered.
func (s *Service) resolveSpec(ctx context.Context, c cell) (outcome, error) {
	art, hit, err := superviseCell(s, ctx, c, s.lookupArtifact)
	if err != nil {
		return outcome{}, err
	}
	out := outcome{body: art.Body, stats: art.Stats}
	if hit {
		out.hits = 1
	} else {
		out.misses = 1
	}
	return out, nil
}

// superviseCell resolves one cell as a single runner task under the
// service's job-scoped supervision (retries, task deadline, worker cap),
// so a spec request, a re-driven job and a forwarded cell get the same
// treatment as a sweep cell.
func superviseCell[T any](s *Service, ctx context.Context, c cell, resolve func(context.Context, cell) (T, bool, error)) (T, bool, error) {
	type resolved struct {
		v   T
		hit bool
	}
	out, err := runner.Map(runner.WithOptions(ctx, s.supervision()...), []runner.Task[resolved]{
		runner.NewTask(c.label, func(tctx context.Context) (resolved, error) {
			v, hit, err := resolve(tctx, c)
			return resolved{v, hit}, err
		}),
	})
	if err != nil {
		var zero T
		return zero, false, err
	}
	return out[0].v, out[0].hit, nil
}

// Values of the cache.lookup span's tier attribute: which tier answered
// a hit.
const (
	tierMemory = "memory" // the in-memory artifact tier
	tierDisk   = "disk"   // the memo cache (clustered: or a peer's)
)

// lookupArtifact resolves a single-cell spec to its decoded artifact:
// from the memory tier when a previous request already hit it on disk,
// else through resolveCell, admitting the artifact to the tier on a disk
// hit. It runs inside the supervised task, so task labels, fault
// injection, retries and deadlines treat a memory hit like any other.
// The tier stays in front of resolveCell rather than inside it because
// it holds decoded artifacts while the resolver deals in the raw bytes
// every cell kind shares; both record their cache.lookup span through
// lookupSpan.
func (s *Service) lookupArtifact(ctx context.Context, c cell) (artifact, bool, error) {
	if art, ok := s.arts.get(c.key); ok {
		startLookup(ctx, c).end(true, tierMemory, nil)
		s.cache.NoteHit()
		return art, true, nil
	}
	raw, hit, err := s.resolveCell(ctx, c, true)
	if err != nil {
		return artifact{}, false, err
	}
	var art artifact
	if err := json.Unmarshal(raw, &art); err != nil {
		return artifact{}, false, fmt.Errorf("service: decoding %s artifact: %w", c.slug, err)
	}
	if hit {
		s.arts.add(c.key, art)
	}
	return art, hit, nil
}

// streamRaw computes a single-cell spec: its kernel over the workload it
// names, rendered into the marshaled artifact — the exact bytes the memo
// cache stores, so local compute, forwarded cells, and cache replay
// agree byte for byte.
func (s *Service) streamRaw(ctx context.Context, run streamFunc, src trace.Stream) (json.RawMessage, error) {
	var buf bytes.Buffer
	st, err := run(ctx, trace.StreamAccesses(src), (&ndjsonWriter{w: &buf}).emit)
	if err != nil {
		return nil, err
	}
	s.records.Add(st.Records)
	return json.Marshal(artifact{Body: buf.Bytes(), Stats: st})
}

// experimentCell is one sweep artifact at concrete parameters, memoized
// under the same (slug, Params) key cmd/paperbench uses.
func (s *Service) experimentCell(id, slug string, p experiments.Params) cell {
	return newCell("sweep/"+id, slug, p, func(ctx context.Context) (json.RawMessage, error) { return s.experimentRaw(ctx, slug, p) })
}

// countingReader counts bytes read from an upload body so ingest can be
// charged per batch. Single-goroutine: the trace reader and the
// meteredSource charging it both run on the request goroutine.
type countingReader struct {
	r        io.Reader
	n, taken uint64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += uint64(n)
	return n, err
}

// take returns the bytes read since the previous take.
func (c *countingReader) take() uint64 {
	d := c.n - c.taken
	c.taken = c.n
	return d
}

// meteredSource charges a tenant for an upload as the kernel reads it:
// each batch charges the records it holds and the body bytes read since
// the previous batch. Crossing the budget ends the source mid-stream,
// and Err reports the quota error, which the handler appends as the
// trailing error record.
type meteredSource struct {
	trace.BatchSource
	s      *Service
	tenant string
	body   *countingReader
	err    error
}

func (m *meteredSource) ReadBatch(b *trace.Batch, max int) int {
	if m.err != nil {
		return 0
	}
	n := m.BatchSource.ReadBatch(b, max)
	nb := m.body.take()
	m.s.mrcIngest.Add(nb)
	if err := m.s.tenants.charge(m.tenant, uint64(n), nb); err != nil {
		m.s.quotaRejects.Add(1)
		m.err = err
		return 0
	}
	return n
}

func (m *meteredSource) Err() error {
	if m.err != nil {
		return m.err
	}
	return m.BatchSource.Err()
}
