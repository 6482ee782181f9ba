package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/obs"
)

// This file is the cell path and the service side of the cluster
// subsystem: the one resolver every memoizable cell goes through
// (resolveCell), the forwarding client path with the straggler-steal
// hedge (remoteCell), and the two internal peer endpoints — POST
// /v1/cluster/cell (execute one cell here) and GET /v1/cache/{key}
// (serve a finished cell from the memo cache without computing).
//
// The invariant that keeps forwarding loop-free: only a resolution with
// route set ever consults the ring, and the cell handler resolves with
// route unset — a forwarded cell is always computed locally by its
// receiver, so the forwarding depth is one by construction even when two
// nodes briefly disagree about ring membership.

// reqMeta is the caller context a request carries into its fan-out:
// the job/trace ID, the idempotency key, and the brownout priority.
// Forwarded cells propagate all three across the wire so the remote
// node's idempotency store and shed ladder behave exactly as this
// node's would have.
type reqMeta struct {
	jobID    string
	idemKey  string
	priority string
}

type reqMetaCtxKey struct{}

func withReqMeta(ctx context.Context, m reqMeta) context.Context {
	return context.WithValue(ctx, reqMetaCtxKey{}, m)
}

func metaFrom(ctx context.Context) reqMeta {
	m, _ := ctx.Value(reqMetaCtxKey{}).(reqMeta)
	return m
}

// cellIdemKey picks the idempotency key a forwarded cell carries. A
// whole-request forward (spec-path classify or mrc: the request IS one
// cell) propagates the caller's key unchanged, so the remote store
// dedupes the caller's retries exactly as the first hop would have.
// Sweep cells use a content-derived key instead — the cell is a pure
// function of (slug, payload), so every node forwarding the same cell
// coalesces onto one remote computation regardless of which job asked.
func cellIdemKey(slug, key string, m reqMeta) string {
	if endpointBySlug(slug) != nil && m.idemKey != "" {
		return m.idemKey
	}
	return "cell-" + key[:32]
}

// computeWorkers is this node's local compute capacity: Config.Workers
// or GOMAXPROCS.
func (s *Service) computeWorkers() int {
	if s.cfg.Workers > 0 {
		return s.cfg.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// cellFlight is one in-flight resolution of a cell on this node;
// concurrent callers for the same key share it instead of duplicating
// the work.
type cellFlight struct {
	done chan struct{}
	res  cellResult
}

// resolveCell is the one path every memoizable cell takes — a
// single-cell spec, a sweep cell, a forwarded cell — under a
// cache.lookup span. Concurrent resolutions of one key share a flight:
// the first caller leads, the rest wait and share its result. A waiter
// whose leader failed claims leadership and retries rather than
// inheriting the failure — the leader may have lost to a transient fault
// the waiter would not hit. The leader probes the memo cache once; on a
// miss it forwards the cell to its ring owner when route is set and the
// ring names a peer, and otherwise — or when the forward fails after its
// retries — computes and stores it here. Health degradation never fails
// a job, it only moves work.
//
// Each resolution counts one memo hit or none in Stats: a waiter that
// shares the leader's disk read counts its own hit, and a cell computed
// here counts one miss however many callers share it. With the
// origin-side forward singleflight in cluster.ExecCell, this makes
// "every cell computes exactly once fleet-wide" hold even when the same
// cell is demanded concurrently on several nodes.
func (s *Service) resolveCell(ctx context.Context, c cell, route bool) (json.RawMessage, bool, error) {
	if c.keyErr != nil {
		return nil, false, c.keyErr
	}
	lookup := startLookup(ctx, c)
	r := s.joinFlight(ctx, c.slug+"\x00"+c.key, func() cellResult {
		if raw, ok := s.cache.LoadRaw(c.slug, c.key); ok {
			return cellResult{raw: raw, hit: true, local: true}
		}
		if route {
			if owner, local := s.cluster.Owner(c.key); !local {
				if r := s.remoteCell(ctx, lookup, owner, c); r.err == nil {
					return r
				}
				// Remote owner unreachable after retries: compute locally below.
			}
		}
		raw, err := s.computeCell(ctx, lookup, c)
		return cellResult{raw: raw, err: err}
	})
	lookup.end(r.hit, tierDisk, r.err)
	return r.raw, r.hit, r.err
}

// lookupSpan is one resolution's cache.lookup span. computeCell's
// cache.store span hangs under it while it is open (mu orders the two);
// a steal that finishes after its resolution ended (the primary forward
// won) stores without one, so no span is exported under an ended lookup.
type lookupSpan struct {
	ctx  context.Context
	sp   *obs.Span
	mu   sync.Mutex
	done bool
}

// startLookup opens the cache.lookup span for one resolution of c.
func startLookup(ctx context.Context, c cell) *lookupSpan {
	lctx, sp := obs.Start(ctx, "cache.lookup")
	sp.Str("cell", c.label)
	return &lookupSpan{ctx: lctx, sp: sp}
}

// end records the lookup's outcome — hit, the tier that answered a hit,
// any error — and ends its span.
func (l *lookupSpan) end(hit bool, tier string, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.done = true
	l.sp.Bool("hit", hit)
	if hit {
		l.sp.Str("tier", tier)
	}
	l.sp.Err(err)
	l.sp.End()
}

// joinFlight runs lead as the flight for key, or waits for the flight
// already running and shares its result (see resolveCell).
func (s *Service) joinFlight(ctx context.Context, key string, lead func() cellResult) cellResult {
	for {
		s.flightMu.Lock()
		if f, ok := s.flights[key]; ok {
			s.flightMu.Unlock()
			select {
			case <-f.done:
			case <-ctx.Done():
				return cellResult{err: ctx.Err()}
			}
			if f.res.err == nil {
				if f.res.local {
					s.cache.NoteHit()
				}
				return f.res
			}
			continue
		}
		f := &cellFlight{done: make(chan struct{})}
		s.flights[key] = f
		s.flightMu.Unlock()
		// Released on panic too: the task runner recovers a panicking
		// compute into an error, and a flight left registered would hold
		// every later resolution of the key until its own deadline. Its
		// waiters see errFlightPanicked and take over.
		f.res.err = errFlightPanicked
		defer func() {
			s.flightMu.Lock()
			delete(s.flights, key)
			s.flightMu.Unlock()
			close(f.done)
		}()
		f.res = lead()
		return f.res
	}
}

// errFlightPanicked is the result a panicked flight leaves its waiters.
var errFlightPanicked = errors.New("service: cell resolution panicked")

// computeCell is the one local compute-and-store step, taken by a cell
// this node resolves itself and by a straggler it steals. The compute
// runs behind the compute gate: clustered, at most computeWorkers cells
// compute here at once, so a clustered sweep's fan-out (widened for
// network-bound forwards) does not also widen local compute.
// Unclustered the gate is open: a node-wide gate there would let an
// attempt abandoned at its deadline hold a slot for good. The result is
// stored as the bytes compute marshalled, under a cache.store span below
// lookup while lookup is open.
func (s *Service) computeCell(ctx context.Context, lookup *lookupSpan, c cell) (json.RawMessage, error) {
	if s.compSem != nil {
		select {
		case s.compSem <- struct{}{}:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		defer func() { <-s.compSem }()
	}
	raw, err := c.compute(ctx)
	if err != nil {
		return nil, err
	}
	lookup.mu.Lock()
	defer lookup.mu.Unlock()
	var st *obs.Span
	if !lookup.done {
		_, st = obs.Start(lookup.ctx, "cache.store")
	}
	s.cache.StoreComputed(c.slug, c.key, raw)
	st.End()
	return raw, nil
}

// cellResult is one resolution of a cell, by whichever path won.
type cellResult struct {
	raw    json.RawMessage
	hit    bool
	err    error
	local  bool // a hit read from this node's memo cache
	stolen bool // resolved by local compute, already in the local cache
}

// remoteCell forwards one cell to owner, racing a steal pass against a
// straggling forward: after StealAfter the cell is pulled from the
// owner's cache (it may have finished but the response got lost) and,
// failing that, computed locally. First result wins. Successful remote
// results are written through to the local cache (cross-node fill), so
// the next lookup — this job's retry, another job, paperbench on the
// same cache dir — replays as a local hit.
// lookup is the resolution's cache.lookup span; a stolen compute's
// cache.store span hangs under it if the steal stores before the
// resolution ends.
func (s *Service) remoteCell(ctx context.Context, lookup *lookupSpan, owner string, c cell) cellResult {
	enc, err := json.Marshal(c.payload)
	if err != nil {
		return cellResult{err: fmt.Errorf("service: encoding cell payload: %w", err)}
	}
	m := metaFrom(ctx)
	creq := cluster.CellRequest{Slug: c.slug, Payload: enc, Key: c.key}
	fm := cluster.ForwardMeta{TraceID: m.jobID, Priority: m.priority, IdemKey: cellIdemKey(c.slug, c.key, m)}

	_, sp := obs.Start(ctx, "cluster.forward")
	sp.Str("owner", owner)
	sp.Str("slug", c.slug)
	defer sp.End()

	fctx, cancel := context.WithCancel(ctx)
	defer cancel()
	primary := make(chan cellResult, 1)
	go func() {
		raw, hit, ferr := s.cluster.ExecCell(fctx, owner, creq, fm)
		primary <- cellResult{raw: raw, hit: hit, err: ferr}
	}()

	finish := func(r cellResult) cellResult {
		if r.err != nil {
			sp.Err(r.err)
			return r
		}
		if !r.stolen {
			if serr := s.cache.StoreRaw(c.slug, c.key, r.raw); serr == nil {
				s.cluster.NoteFill()
			}
		}
		sp.Bool("hit", r.hit)
		return r
	}

	var stealC <-chan time.Time
	if d := s.cluster.StealAfterDelay(); d > 0 {
		t := time.NewTimer(d)
		defer t.Stop()
		stealC = t.C
	}

	select {
	case r := <-primary:
		return finish(r)
	case <-ctx.Done():
		return cellResult{err: ctx.Err()}
	case <-stealC:
	}

	// Straggler: steal the cell. Pull first (cheap, and the owner may
	// have finished the work even if the forward's response is stuck),
	// then the local compute-and-store step (the result is stored, so a
	// late-arriving primary changes nothing).
	s.cluster.NoteSteal()
	sp.Bool("steal", true)
	second := make(chan cellResult, 1)
	go func() {
		pctx, pcancel := context.WithTimeout(fctx, min(s.cluster.StealAfterDelay(), time.Second))
		raw, ok, _ := s.cluster.PullCache(pctx, owner, c.slug, c.key)
		pcancel()
		if ok {
			second <- cellResult{raw: raw, hit: true}
			return
		}
		raw2, cerr := s.computeCell(fctx, lookup, c)
		second <- cellResult{raw: raw2, err: cerr, stolen: true}
	}()
	// First success wins. If both fail, the steal's error surfaces: a
	// local compute error is authoritative once the forward failed too.
	var failed cellResult
	for range 2 {
		var r cellResult
		select {
		case r = <-primary:
		case r = <-second:
		case <-ctx.Done():
			return cellResult{err: ctx.Err()}
		}
		if r.err == nil {
			return finish(r)
		}
		if failed.err == nil || r.stolen {
			failed = r
		}
	}
	return finish(failed)
}

// execCellLocal validates and executes one forwarded cell on this node,
// through the same supervision, task labels, resolver and compute gate a
// locally-originated cell gets — fault injection, slow-task logging, and
// retry policy treat a cell identically wherever it runs. It resolves
// with route unset, under the same flight key as local demand for the
// cell, so it never consults the ring (see the loop-freedom invariant
// above) and coalesces with a concurrent local resolution.
func (s *Service) execCellLocal(ctx context.Context, creq cluster.CellRequest) (json.RawMessage, bool, error) {
	c, err := s.forwardedCell(creq)
	if err != nil {
		return nil, false, err
	}
	return superviseCell(s, ctx, c, func(ctx context.Context, c cell) (json.RawMessage, bool, error) {
		return s.resolveCell(ctx, c, false)
	})
}

// forwardedCell rebuilds the cell a peer sent: a single-cell endpoint's
// spec (looked up by its memo slug), or one sweep experiment at the
// given parameters. Payloads decode as strictly as request bodies.
func (s *Service) forwardedCell(creq cluster.CellRequest) (cell, error) {
	if ep := endpointBySlug(creq.Slug); ep != nil {
		sp := ep.newSpec()
		if err := s.decodeSpec(bytes.NewReader(creq.Payload), sp); err != nil {
			return cell{}, err
		}
		return ep.cell(s, sp), nil
	}
	arts, err := experiments.Select([]string{creq.Slug})
	if err != nil || len(arts) != 1 || arts[0].Slug != creq.Slug {
		return cell{}, fmt.Errorf("%w: unknown cell slug %q", ErrBadRequest, creq.Slug)
	}
	var p experiments.Params
	if err := decodeStrict(bytes.NewReader(creq.Payload), &p); err != nil {
		return cell{}, fmt.Errorf("%w: cell payload: %v", ErrBadRequest, err)
	}
	return s.experimentCell(creq.Slug, creq.Slug, p), nil
}

// experimentRaw computes one experiment cell and returns its marshaled
// result.
func (s *Service) experimentRaw(ctx context.Context, slug string, p experiments.Params) (json.RawMessage, error) {
	if cerr := ctx.Err(); cerr != nil {
		return nil, cerr
	}
	v, err := experiments.RunArtifact(slug, p)
	if err != nil {
		return nil, err
	}
	enc, merr := json.Marshal(v)
	if merr != nil {
		return nil, fmt.Errorf("service: encoding %s result: %w", slug, merr)
	}
	s.records.Add(p.Instructions)
	return enc, nil
}

// handleClusterCell serves POST /v1/cluster/cell: execute one cell on
// this node and return its raw result. Internal (peer-to-peer) but
// held to the public endpoints' discipline: brownout-gated (the
// forwarded X-Mct-Priority decides survival at the low-priority shed
// level), admission-bounded per origin node, idempotency-wrapped by
// the route registration. The X-Mct-Trace-Id header threads the
// origin's job trace through this node's spans.
func (s *Service) handleClusterCell(w http.ResponseWriter, r *http.Request) {
	if s.shed(w, r, false) {
		return
	}
	origin := clientID(r)
	ctx := r.Context()
	if tid := r.Header.Get(cluster.TraceIDHeader); tid != "" {
		ctx = obs.Inject(ctx, s.ring, tid)
	}
	ctx, root := obs.Start(ctx, "cluster.cell")
	root.Str("origin", origin)
	defer root.End()

	release, err := s.admit(ctx, origin)
	if err != nil {
		root.Err(err)
		writeErr(w, err)
		return
	}
	defer release()

	var creq cluster.CellRequest
	if err := decodeStrict(http.MaxBytesReader(w, r.Body, 1<<20), &creq); err != nil {
		writeErr(w, fmt.Errorf("%w: decoding cell: %v", ErrBadRequest, err))
		return
	}
	root.Str("slug", creq.Slug)
	raw, hit, err := s.execCellLocal(ctx, creq)
	if err != nil {
		root.Err(err)
		writeErr(w, err)
		return
	}
	root.Bool("hit", hit)
	if self := s.cluster.Self(); self != "" {
		w.Header().Set(cluster.NodeHeader, self)
	}
	disposition := "miss"
	if hit {
		disposition = "hit"
	}
	w.Header().Set(cluster.CacheHeader, disposition)
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(raw)
}

// handleCacheGet serves GET /v1/cache/{key}?slug=: a peer pulling a
// finished cell instead of recomputing it. A pure cache read — no
// admission, no shed, no compute ever triggered — so it stays cheap
// and available even when this node is saturated, exactly when peers
// most want to pull rather than forward.
func (s *Service) handleCacheGet(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	slug := r.URL.Query().Get("slug")
	if slug == "" || !validMemoKey(key) {
		writeErr(w, fmt.Errorf("%w: cache get needs a hex key path and a slug query", ErrBadRequest))
		return
	}
	raw, ok := s.cache.LoadRaw(slug, key)
	if !ok {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusNotFound)
		_ = json.NewEncoder(w).Encode(errorBody{Error: fmt.Sprintf("no cached result for %s/%s", slug, key[:16]), Status: http.StatusNotFound})
		return
	}
	if self := s.cluster.Self(); self != "" {
		w.Header().Set(cluster.NodeHeader, self)
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(raw)
}

// validMemoKey checks the shape runner.Key produces: 64 hex chars.
func validMemoKey(key string) bool {
	if len(key) != 64 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}
