// Command mctd is the networked simulation service: it serves the MCT
// classifier and the experiment sweeps over HTTP with bounded admission,
// supervised execution, NDJSON result streaming, on-disk memoization shared
// with cmd/paperbench, and graceful drain on SIGTERM/SIGINT.
//
//	mctd -listen :8047
//	curl -s localhost:8047/v1/classify -H 'Content-Type: application/json' \
//	     -d '{"workload":"gcc","accesses":100000}'
package main

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/durable"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/service"
	"repro/internal/trace"
)

func main() {
	os.Exit(mctdMain(os.Args[1:], os.Stdout, os.Stderr, nil))
}

// mctdMain runs the daemon until a shutdown signal lands and the drain
// completes. ready, when non-nil, receives the bound listen address once
// the server is accepting — tests listen on an ephemeral port and need
// to learn which.
func mctdMain(args []string, stdout, stderr io.Writer, ready chan<- string) int {
	fs := flag.NewFlagSet("mctd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		listen    = fs.String("listen", ":8047", "listen address")
		capacity  = fs.Int("capacity", 64, "max in-flight requests (admission bound)")
		waiters   = fs.Int("waiters", -1, "max requests briefly queued for a slot (-1 = same as capacity, 0 = none)")
		perClient = fs.Int("per-client", 0, "max in-flight requests per client (0 = no per-client cap)")
		admitWait = fs.Duration("admit-wait", 100*time.Millisecond, "how long a queued request may wait for a slot")

		cacheDir = fs.String("cachedir", runner.DefaultCacheDir, "on-disk result cache directory (shared with paperbench)")
		noCache  = fs.Bool("nocache", false, "disable the result cache")
		ckptDir  = fs.String("checkpointdir", runner.DefaultCheckpointDir, "sweep checkpoint directory")

		journalDir = fs.String("journaldir", "results/jobs", "durable job journal directory; jobs interrupted by a crash are re-driven at boot (empty = journaling off)")
		fsyncMode  = fs.String("fsync", "data", "fsync policy for journal/checkpoint/cache writes: off (process-crash safe only), data (batch boundaries), always")

		chaosSpec  = fs.String("chaos", "", "network fault injection on the listener, e.g. 'reset=0.05,latency=20ms,jitter=10ms' (see internal/faultinject)")
		injectSpec = fs.String("inject", "", "task fault-injection schedule, e.g. 'error:2' or 'hang@sweep' (see internal/faultinject)")
		brownoutOn = fs.Bool("brownout", true, "shed load progressively when overloaded (streaming first, then low-priority, then everything but health and metrics)")

		maxRecords  = fs.Uint64("max-records", 10_000_000, "max records in an uploaded trace (0 = unlimited)")
		maxBytes    = fs.Uint64("max-bytes", 1<<28, "max bytes in an uploaded trace (0 = unlimited)")
		maxAccesses = fs.Uint64("max-accesses", 5_000_000, "max accesses in a classify spec")

		tenantAccesses = fs.Uint64("tenant-accesses", 0, "per-tenant MRC access budget per window (0 = unlimited)")
		tenantBytes    = fs.Uint64("tenant-bytes", 0, "per-tenant MRC upload-byte budget per window (0 = unlimited)")
		tenantWindow   = fs.Duration("tenant-window", time.Hour, "tenant quota accounting window")

		taskTimeout  = fs.Duration("task-timeout", 0, "per-task attempt deadline (0 = unbounded)")
		retries      = fs.Int("retries", 2, "extra attempts per task for failures marked transient")
		drainTimeout = fs.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for in-flight work")

		peersFlag     = fs.String("peers", "", "comma-separated fleet membership (host:port,...); empty = single node")
		selfAddr      = fs.String("self", "", "this node's advertised host:port (required with -peers)")
		vnodes        = fs.Int("vnodes", 0, "virtual nodes per peer on the hash ring (0 = default 128)")
		ringSeed      = fs.Uint64("ring-seed", 0, "hash-ring seed; must match across the fleet")
		probeInterval = fs.Duration("probe-interval", 500*time.Millisecond, "peer health-probe cadence")
		probeTimeout  = fs.Duration("probe-timeout", time.Second, "per-probe timeout")
		stealAfter    = fs.Duration("steal-after", 0, "steal a forwarded cell still unanswered after this delay (0 = off)")
		forwardTries  = fs.Int("forward-attempts", 4, "max attempts per forwarded cell (resilient client retries)")
		workers       = fs.Int("workers", 0, "max concurrent local cell computations (0 = GOMAXPROCS)")

		traceOut   = fs.String("trace-out", "", "write finished trace spans as NDJSON to this file")
		traceSpans = fs.Int("trace-spans", 0, "in-memory span ring size behind /v1/trace (0 = default)")
		pprofOn    = fs.Bool("pprof", false, "mount /debug/pprof and /debug/vars (opt-in: profiling endpoints are not for the open internet)")
		slowFactor = fs.Float64("slow-factor", 8, "log task attempts slower than this multiple of their label's running median (0 = off)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	// One serialized writer for every diagnostic stream — the server's
	// own log lines, the cache's log callback, slow-task events. Without
	// it the cache logger wrote to stderr from concurrent sweep workers
	// with no synchronization, shearing interleaved lines.
	log := obs.NewSyncWriter(stderr)
	stderr = log

	// Flag semantics (-1 = match capacity, 0 = no waiting room) differ
	// from Config's (0 = default to capacity, negative = none).
	maxWaiters := *waiters
	switch {
	case maxWaiters < 0:
		maxWaiters = 0
	case maxWaiters == 0:
		maxWaiters = -1
	}

	fsync, err := durable.ParsePolicy(*fsyncMode)
	if err != nil {
		fmt.Fprintln(stderr, "mctd:", err)
		return 2
	}
	// The runner's checkpoint and cache writers share the process-wide
	// policy: one -fsync flag governs every durable write in the daemon.
	runner.SetSyncPolicy(fsync)
	defer runner.SetSyncPolicy(durable.PolicyOff)

	var chaos faultinject.NetConfig
	if *chaosSpec != "" {
		if chaos, err = faultinject.ParseNetSpec(*chaosSpec); err != nil {
			fmt.Fprintln(stderr, "mctd:", err)
			return 2
		}
	}
	if *injectSpec != "" {
		fault, err := faultinject.Parse(*injectSpec)
		if err != nil {
			fmt.Fprintln(stderr, "mctd:", err)
			return 2
		}
		restore := faultinject.Install(fault)
		defer restore()
		fmt.Fprintf(stderr, "mctd: fault injection active: %s\n", *injectSpec)
	}

	// Experiments fan out internally through runner.Map with the
	// process-wide defaults; give those inner pools the same supervision
	// policy the service applies to its own job-level fan-outs.
	runner.SetDefaultOptions(runner.PartialResults(), runner.Retry(*retries, runner.DefaultBackoff))
	defer runner.SetDefaultOptions()

	// Fleet membership, if any. cl stays nil for an empty -peers list (or
	// one naming only this node): the single-node path is untouched.
	var peerList []string
	if *peersFlag != "" {
		for _, p := range strings.Split(*peersFlag, ",") {
			if p = strings.TrimSpace(p); p != "" {
				peerList = append(peerList, p)
			}
		}
	}
	cl, err := cluster.New(cluster.Config{
		Self:            *selfAddr,
		Peers:           peerList,
		VNodes:          *vnodes,
		Seed:            *ringSeed,
		ProbeInterval:   *probeInterval,
		ProbeTimeout:    *probeTimeout,
		StealAfter:      *stealAfter,
		ForwardAttempts: *forwardTries,
		Logf:            func(format string, a ...any) { fmt.Fprintf(log, format+"\n", a...) },
	})
	if err != nil {
		fmt.Fprintln(stderr, "mctd:", err)
		return 2
	}

	svc := service.New(service.Config{
		Cluster:         cl,
		Workers:         *workers,
		Capacity:        *capacity,
		MaxWaiters:      maxWaiters,
		PerClient:       *perClient,
		AdmitWait:       *admitWait,
		CacheDir:        *cacheDir,
		NoCache:         *noCache,
		CheckpointDir:   *ckptDir,
		Limits:          trace.Limits{MaxRecords: *maxRecords, MaxBytes: *maxBytes},
		MaxSpecAccesses: *maxAccesses,
		Tenant: service.TenantQuota{
			MaxAccesses: *tenantAccesses,
			MaxBytes:    *tenantBytes,
			Window:      *tenantWindow,
		},
		TaskTimeout: *taskTimeout,
		Retries:     *retries,
		TraceSpans:  *traceSpans,
		JournalDir:  *journalDir,
		Fsync:       fsync,
		Brownout:    service.BrownoutConfig{Enabled: *brownoutOn},
		Logf:        func(format string, a ...any) { fmt.Fprintf(log, format+"\n", a...) },
	})
	if c := svc.Cache(); c != nil {
		// The callback writes through the serialized writer; each log
		// statement is one Write, so concurrent workers cannot shear lines.
		c.SetLogf(func(format string, a ...any) { fmt.Fprintf(log, format+"\n", a...) })
	}

	if cl.Enabled() {
		// The service's Drain closes the cluster; mctd only starts the
		// prober once the instance is otherwise wired.
		cl.Start()
		fmt.Fprintf(stderr, "mctd: cluster: self=%s ring=%v (vnodes %d, steal-after %s)\n",
			cl.Self(), cl.Ring().Peers(), *vnodes, *stealAfter)
	}

	// Replay the job journal before accepting traffic: finished jobs are
	// restored to the registry, interrupted ones re-drive in the
	// background (their results land in the memo cache, so a client's
	// retry replays instead of recomputing), and upload jobs whose bodies
	// were never retained are marked failed. A journal that cannot open
	// or replay fails the boot — an operator who asked for durability
	// should not get a silently non-durable daemon.
	if st, err := svc.Recover(context.Background()); err != nil {
		fmt.Fprintln(stderr, "mctd:", err)
		return 1
	} else if st.Jobs > 0 || st.Replay.TornTail || st.Replay.Quarantined > 0 {
		fmt.Fprintf(stderr, "mctd: journal recovery: %d jobs (%d finished, %d re-driven, %d orphaned), %d records in %d segments (torn tail: %v, quarantined: %d)\n",
			st.Jobs, st.Finished, st.Redriven, st.Orphaned,
			st.Replay.Records, st.Replay.Segments, st.Replay.TornTail, st.Replay.Quarantined)
	}

	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(stderr, "mctd:", err)
			return 1
		}
		exp := obs.NewNDJSONExporter(f)
		obs.SetExporter(exp)
		defer func() {
			obs.SetExporter(nil)
			if err := exp.Close(); err != nil {
				fmt.Fprintln(stderr, "mctd: trace-out:", err)
			}
		}()
	}

	if *slowFactor > 0 {
		obs.SetSlowLog(*slowFactor, 8, func(e obs.SlowEvent) {
			svc.NoteSlowTask()
			enc, _ := json.Marshal(e)
			fmt.Fprintf(log, "mctd: slow task %s\n", enc)
		})
		defer obs.SetSlowLog(0, 0, nil)
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintln(stderr, "mctd:", err)
		return 1
	}
	if *chaosSpec != "" {
		// Chaos wraps the listener itself so injected resets, latency and
		// partial writes hit real accepted connections — the same failure
		// surface a flaky network presents.
		ln = chaos.Listener(ln)
		fmt.Fprintf(stderr, "mctd: network chaos active: %s\n", chaos)
	}
	srv := &http.Server{Handler: rootHandler(svc, *pprofOn)}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	defer signal.Stop(sigc)

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	fmt.Fprintf(stderr, "mctd: listening on %s (capacity %d, cache %s)\n", ln.Addr(), *capacity, cacheDisplay(*noCache, *cacheDir))
	if ready != nil {
		ready <- ln.Addr().String()
	}

	select {
	case sig := <-sigc:
		fmt.Fprintf(stderr, "mctd: %v: draining (timeout %s)\n", sig, *drainTimeout)
	case err := <-serveErr:
		fmt.Fprintln(stderr, "mctd:", err)
		return 1
	}

	// Graceful drain: shut the admission gate first (healthz flips to 503
	// and new work bounces), then let in-flight HTTP requests finish, then
	// wait for the service to report idle and stop its background work.
	svc.StartDrain()
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	code := 0
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintln(stderr, "mctd: shutdown:", err)
		code = 1
	}
	if err := svc.Drain(ctx); err != nil {
		fmt.Fprintln(stderr, "mctd:", err)
		code = 1
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(stderr, "mctd:", err)
		code = 1
	}
	if code == 0 {
		fmt.Fprintln(stderr, "mctd: drained cleanly")
	}
	_ = stdout
	return code
}

func cacheDisplay(noCache bool, dir string) string {
	if noCache {
		return "disabled"
	}
	return dir
}

// rootHandler wraps the service API, optionally mounting the pprof
// endpoints and Go's process-global expvar registry (cmdline,
// memstats; the service's own metrics live on /metrics). Opt-in only: the
// profiling surface reveals internals (and profile collection costs CPU)
// that a production instance should not expose by default.
func rootHandler(svc *service.Service, withPprof bool) http.Handler {
	if !withPprof {
		return svc.Handler()
	}
	mux := http.NewServeMux()
	mux.Handle("/", svc.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	return mux
}
