// Package service is the networked front end of the simulator: a job
// model with admission control, supervised execution on the runner's
// worker pool, NDJSON result streaming, on-disk memoization, and
// graceful drain. cmd/mctd mounts it over HTTP; the package itself is
// transport-light (one request pipeline in endpoint.go) and fully
// testable in process.
//
// The request path is admission → supervise → stream:
//
//  1. admission bounds in-flight work (capacity, a small waiting room,
//     per-client fairness) and rejects everything beyond with 429/503 —
//     memory stays proportional to configuration, never to offered load;
//  2. each admitted classify or MRC spec resolves as one supervised
//     runner task around the memo cache; sweeps fan out per artifact;
//     the runner layer supplies deadlines, retries, and partial-result
//     collection (job-scoped via runner.WithOptions, not global state);
//  3. results stream back as NDJSON, byte-identical whether computed or
//     replayed from the memoization cache.
package service

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/durable"
	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/trace"
)

// Config sizes the service. The zero value is usable: every field has a
// production-shaped default.
type Config struct {
	// Capacity is the maximum number of admitted (in-flight) requests;
	// MaxWaiters more may briefly block for a slot (0 = default to
	// Capacity, negative = no waiting room), and no client may hold more
	// than PerClient slots (0 = no per-client cap). AdmitWait bounds how
	// long a waiter blocks before 429.
	Capacity   int
	MaxWaiters int
	PerClient  int
	AdmitWait  time.Duration

	// CacheDir roots the memoization cache (shared with cmd/paperbench);
	// NoCache disables it.
	CacheDir string
	NoCache  bool

	// Deprecated: CheckpointDir is ignored. Sweeps write no checkpoint;
	// a resubmitted or re-driven sweep replays its finished cells from
	// the memo cache under CacheDir.
	CheckpointDir string

	// Limits bounds uploaded traces; MaxSpecAccesses bounds spec-path
	// classification size.
	Limits          trace.Limits
	MaxSpecAccesses uint64

	// TaskTimeout and Retries are the supervision policy for every job's
	// fan-out (0 timeout = unbounded).
	TaskTimeout time.Duration
	Retries     int

	// MaxJobs bounds the in-memory job registry (oldest evicted).
	MaxJobs int

	// TraceSpans sizes the in-memory span ring backing GET
	// /v1/trace/{job} (0 = default 4096). The ring is always on — spans
	// cost a few hundred bytes each and the ring is bounded, so request
	// traces are available without opt-in flags.
	TraceSpans int

	// JournalDir roots the durable job journal (an append-only WAL under
	// results/jobs/ in production). Empty disables journaling — and with
	// it crash recovery and post-restart idempotency accounting.
	JournalDir string
	// Fsync is the durability policy for the journal (and, via cmd/mctd,
	// for cache writes): PolicyOff survives process crashes
	// (page cache), PolicyData also survives power loss for completed
	// jobs, PolicyAlways fsyncs every record.
	Fsync durable.Policy

	// IdemMaxEntries / IdemMaxBodyBytes bound the idempotency replay
	// store (0 = 4096 entries / 4 MiB per body). Responses larger than
	// the body cap are not replayed — retries recompute via the memo
	// cache instead, which is still byte-identical.
	IdemMaxEntries   int
	IdemMaxBodyBytes int

	// Brownout configures the overload-shedding ladder (disabled unless
	// Brownout.Enabled).
	Brownout BrownoutConfig

	// Tenant bounds per-tenant MRC consumption (accesses profiled,
	// bytes ingested). The zero value accounts but never rejects.
	Tenant TenantQuota

	// Cluster shards memoizable cells (classify specs, sweep cells)
	// across a fleet by consistent hashing over their memo keys. Nil (or
	// a nil *cluster.Cluster, the -peers-empty case) means single-node:
	// every cell computes locally through exactly the pre-cluster code
	// path. The service owns the cluster's lifecycle once passed here —
	// Drain closes it.
	Cluster *cluster.Cluster

	// Workers caps concurrent local cell computation (0 = GOMAXPROCS).
	// Clustered sweeps fan out wider than this so remote forwards overlap,
	// but at most Workers cells ever compute on this node at once.
	Workers int

	// Logf receives operational diagnostics (journal damage, brownout
	// transitions, recovery progress). Nil discards.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.Capacity == 0 {
		c.Capacity = 64
	}
	if c.MaxWaiters == 0 {
		c.MaxWaiters = c.Capacity
	}
	if c.AdmitWait == 0 {
		c.AdmitWait = 100 * time.Millisecond
	}
	if c.CacheDir == "" {
		c.CacheDir = runner.DefaultCacheDir
	}
	if c.Limits == (trace.Limits{}) {
		c.Limits = trace.Limits{MaxRecords: 10_000_000, MaxBytes: 1 << 28}
	}
	if c.MaxSpecAccesses == 0 {
		c.MaxSpecAccesses = 5_000_000
	}
	if c.Retries == 0 {
		c.Retries = 2
	}
	if c.MaxJobs == 0 {
		c.MaxJobs = 1024
	}
	if c.TraceSpans == 0 {
		c.TraceSpans = 4096
	}
	return c
}

// Service is one mctd instance: the admission gate, the job registry,
// the memoization cache, and the metrics they feed.
type Service struct {
	cfg   Config
	adm   *admission
	jobs  *jobs
	cache *runner.Cache // nil with NoCache
	arts  *memoTier     // decoded artifacts re-referenced on disk; nil with NoCache
	logf  func(format string, args ...any)

	// Cluster spine: the ring + forwarding layer (nil single-node) and
	// the local-compute semaphore that keeps a clustered sweep's widened
	// fan-out from widening local compute (nil when unclustered).
	cluster  *cluster.Cluster
	compSem  chan struct{}
	flightMu sync.Mutex
	flights  map[string]*cellFlight

	// Robustness spine: the durable job journal (write-through from the
	// registry, replayed by Recover), the idempotency replay store, and
	// the brownout overload controller.
	jlog        *jobLog
	jlogOpenErr error
	idem        *idemStore
	brown       *brownout
	recoverWG   sync.WaitGroup

	// Tenant quota spine for /v1/mrc: the windowed ledger plus its
	// counters.
	tenants      *tenantLedger
	mrcReqs      counter // /v1/mrc requests past the shed gate
	mrcIngest    counter // uploaded trace bytes ingested by /v1/mrc
	quotaRejects counter // requests rejected by tenant quota

	records   counter // simulated records (instructions/accesses)
	retried   counter
	slow      counter // slow-task detections (fed by cmd/mctd's slow log)
	recovered counter // jobs resolved by boot-time recovery
	jnlWrites counter
	jnlErrs   counter

	// Observability spine: a per-instance metric registry (Prometheus
	// exposition), the span ring behind GET /v1/trace/{job}, and the
	// request-path histograms. Per-instance, not process-global, so tests
	// boot many services without colliding.
	reg    *obs.Registry
	ring   *obs.Ring
	hAdmit *obs.Histogram            // seconds spent in the admission gate
	hReq   map[string]*obs.Histogram // request duration by endpoint kind, seconds
}

// New builds a Service from cfg (zero fields defaulted). Callers own its
// lifecycle: serve s.Handler(), then Drain on shutdown.
func New(cfg Config) *Service {
	cfg = cfg.withDefaults()
	s := &Service{
		cfg:  cfg,
		adm:  newAdmission(cfg.Capacity, cfg.MaxWaiters, cfg.PerClient, cfg.AdmitWait),
		jobs: newJobs(cfg.MaxJobs),
	}
	s.logf = cfg.Logf
	s.cluster = cfg.Cluster
	if s.cluster.Enabled() {
		s.compSem = make(chan struct{}, s.computeWorkers())
	}
	if !cfg.NoCache {
		s.cache = runner.Open(cfg.CacheDir)
		s.arts = newMemoTier(memoTierBudget)
	}
	s.jlog = &jobLog{logf: cfg.Logf, errs: &s.jnlErrs, writes: &s.jnlWrites}
	if cfg.JournalDir != "" {
		j, err := journal.Open(cfg.JournalDir, journal.Options{Sync: cfg.Fsync, Logf: cfg.Logf})
		if err != nil {
			// Deferred, not swallowed: Recover (the boot path) surfaces it so
			// an operator's misconfigured journal dir fails the boot, while
			// tests that never recover still construct a service.
			s.jlogOpenErr = err
		} else {
			s.jlog.j = j
		}
	}
	s.idem = newIdemStore(cfg.IdemMaxEntries, cfg.IdemMaxBodyBytes)
	s.tenants = newTenantLedger(cfg.Tenant)
	s.brown = newBrownout(s, cfg.Brownout)
	s.ring = obs.NewRing(cfg.TraceSpans)
	s.reg = s.buildRegistry()
	s.brown.run()
	return s
}

// supervision is the job-scoped option set every fan-out runs under.
func (s *Service) supervision() []runner.Option {
	opts := []runner.Option{runner.Retry(s.cfg.Retries, runner.DefaultBackoff)}
	if s.cfg.TaskTimeout > 0 {
		opts = append(opts, runner.Deadline(s.cfg.TaskTimeout))
	}
	if s.cfg.Workers > 0 {
		opts = append(opts, runner.Workers(s.cfg.Workers))
	}
	return opts
}

// StartDrain shuts the admission gate: new work is rejected with 503,
// in-flight work keeps running. healthz flips to draining so load
// balancers stop routing here.
func (s *Service) StartDrain() { s.adm.StartDrain() }

// Drain performs the full graceful shutdown: gate shut, wait for every
// admitted request AND every recovery re-drive to finish (bounded by
// ctx), then stop the brownout ticker, the cluster layer, and the journal.
// After Drain returns nil the process holds no in-flight work.
func (s *Service) Drain(ctx context.Context) error {
	s.adm.StartDrain()
	if err := s.adm.AwaitIdle(ctx); err != nil {
		return fmt.Errorf("service: drain: %w", err)
	}
	if err := s.AwaitRecovery(ctx); err != nil {
		return fmt.Errorf("service: drain: recovery jobs: %w", err)
	}
	s.brown.close()
	s.cluster.Close()
	if s.jlog != nil && s.jlog.j != nil {
		if err := s.jlog.j.Close(); err != nil && s.logf != nil {
			s.logf("service: closing journal: %v", err)
		}
	}
	return nil
}

// Cache exposes the memoization cache (nil when disabled) for wiring
// diagnostics loggers.
func (s *Service) Cache() *runner.Cache { return s.cache }

// NoteSlowTask counts one slow-task detection (cmd/mctd's slow log
// calls this alongside emitting the structured event).
func (s *Service) NoteSlowTask() { s.slow.Add(1) }

// buildRegistry declares the service's metrics — the one metrics
// surface, served as Prometheus text on GET /metrics. Counters and
// gauges read the service's live atomics at scrape time, so nothing is
// double-accounted.
func (s *Service) buildRegistry() *obs.Registry {
	r := obs.NewRegistry()
	r.Counter("mct_jobs_accepted_total", "Requests admitted past the admission gate.",
		func() float64 { return float64(s.adm.accepted.Load()) })
	r.Counter("mct_jobs_rejected_total", "Requests rejected (capacity, per-client cap, or draining).",
		func() float64 {
			return float64(s.adm.rejectedFull.Load() + s.adm.rejectedClient.Load() + s.adm.rejectedDrain.Load())
		})
	r.Counter("mct_jobs_retried_total", "Task retries performed by the supervision layer.",
		func() float64 { return float64(s.retried.Load()) })
	r.Counter("mct_records_total", "Simulated trace records processed.",
		func() float64 { return float64(s.records.Load()) })
	r.Counter("mct_cache_hits_total", "Memoization cache hits.",
		func() float64 { h, _ := s.cache.Stats(); return float64(h) })
	r.Counter("mct_cache_misses_total", "Memoization cache misses.",
		func() float64 { _, m := s.cache.Stats(); return float64(m) })
	r.Gauge("mct_memo_memory_bytes", "Artifact body bytes held by the in-memory memo tier.",
		func() float64 { b, _ := s.arts.size(); return float64(b) })
	r.Counter("mct_mrc_requests_total", "MRC requests past the shed gate.",
		func() float64 { return float64(s.mrcReqs.Load()) })
	r.Counter("mct_mrc_ingest_bytes_total", "Uploaded trace bytes ingested by /v1/mrc.",
		func() float64 { return float64(s.mrcIngest.Load()) })
	r.Counter("mct_mrc_quota_rejected_total", "Requests rejected or aborted by tenant quota.",
		func() float64 { return float64(s.quotaRejects.Load()) })
	r.Counter("mct_slow_tasks_total", "Task attempts flagged by the slow-task log.",
		func() float64 { return float64(s.slow.Load()) })
	r.Counter("mct_journal_records_total", "Job journal records appended.",
		func() float64 { return float64(s.jnlWrites.Load()) })
	r.Counter("mct_journal_errors_total", "Job journal append failures (durability degraded).",
		func() float64 { return float64(s.jnlErrs.Load()) })
	r.Counter("mct_jobs_recovered_total", "Jobs resolved by boot-time journal recovery.",
		func() float64 { return float64(s.recovered.Load()) })
	r.Counter("mct_idem_replayed_total", "Requests answered from the idempotency replay store.",
		func() float64 { return float64(s.idem.replayed.Load()) })
	r.Counter("mct_idem_stored_total", "Outcomes committed to the idempotency replay store.",
		func() float64 { return float64(s.idem.stored.Load()) })
	r.Counter("mct_idem_coalesced_total", "Duplicate requests coalesced onto an in-flight leader.",
		func() float64 { return float64(s.idem.inflight.Load()) })
	r.Counter("mct_brownout_transitions_total", "Brownout ladder level changes.",
		func() float64 { return float64(s.brown.transitions.Load()) })
	r.Counter("mct_brownout_shed_total", "Requests shed by the brownout controller.",
		func() float64 { return float64(s.brown.sheds.Load()) })
	r.Gauge("mct_brownout_level", "Current brownout ladder level (0 normal .. 3 breaker open).",
		func() float64 { return float64(s.brown.Level()) })
	r.Gauge("mct_queue_inflight", "Requests currently admitted and in flight.",
		func() float64 { return float64(s.adm.Inflight()) })
	r.Gauge("mct_queue_waiters", "Requests blocked waiting for an admission slot.",
		func() float64 { return float64(s.adm.Waiters()) })
	r.Gauge("mct_queue_peak", "Most requests ever in flight at once.",
		func() float64 { return float64(s.adm.Peak()) })
	r.Gauge("mct_queue_capacity", "Configured admission capacity.",
		func() float64 { return float64(s.cfg.Capacity) })
	r.Gauge("mct_draining", "1 while the admission gate is shut for shutdown.",
		func() float64 {
			if s.adm.Draining() {
				return 1
			}
			return 0
		})
	// Cluster metrics read the cluster's own atomics (all zero and
	// harmless when single-node — the counters are nil-safe).
	r.Counter("mct_cluster_forwards_total", "Cells forwarded to their remote ring owner.",
		func() float64 { return float64(s.cluster.Counters().Forwards) })
	r.Counter("mct_cluster_forward_failures_total", "Cell forwards that exhausted retries and fell back to local compute.",
		func() float64 { return float64(s.cluster.Counters().ForwardFails) })
	r.Counter("mct_cluster_steals_total", "Straggling forwards stolen back (pulled or recomputed locally).",
		func() float64 { return float64(s.cluster.Counters().Steals) })
	r.Counter("mct_cluster_peer_ejections_total", "Peers ejected from the ring after failed health probes.",
		func() float64 { return float64(s.cluster.Counters().Ejections) })
	r.Counter("mct_cluster_peer_restores_total", "Ejected peers restored to the ring after a healthy probe.",
		func() float64 { return float64(s.cluster.Counters().Restores) })
	r.Counter("mct_cluster_cache_fills_total", "Remote cell results written through to the local memo cache.",
		func() float64 { return float64(s.cluster.Counters().CacheFills) })
	r.Counter("mct_cluster_cache_pulls_total", "Cache-pull requests issued to peers.",
		func() float64 { return float64(s.cluster.Counters().CachePulls) })
	r.Counter("mct_cluster_cache_pull_hits_total", "Cache pulls answered from a peer's memo cache.",
		func() float64 { return float64(s.cluster.Counters().PullHits) })
	r.Gauge("mct_cluster_ring_size", "Nodes currently in the hash ring (1 when single-node).",
		func() float64 {
			if ring := s.cluster.Ring(); ring != nil {
				return float64(len(ring.Peers()))
			}
			return 1
		})
	s.hAdmit = r.Histogram("mct_admission_wait_seconds",
		"Time spent in the admission gate, accepted or rejected.", obs.LatencyBuckets)
	s.hReq = map[string]*obs.Histogram{}
	for _, ep := range endpoints {
		s.hReq[ep.kind] = r.Histogram("mct_"+ep.kind+"_duration_seconds",
			ep.title+" request duration, admission to last byte.", obs.LatencyBuckets)
	}
	return r
}

// counter is a monotonic event counter read by the metric registry.
type counter = atomic.Uint64

// noteRetries feeds the jobs_retried counter from a finished job's
// failure structure (attempt counts above 1 mean the supervision layer
// retried).
func (s *Service) noteRetries(failures []Failure) {
	for _, f := range failures {
		if f.Attempts > 1 {
			s.retried.Add(uint64(f.Attempts - 1))
		}
	}
}
