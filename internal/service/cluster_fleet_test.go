package service

// In-process fleet tests: several complete Services, each with its own
// cache and cluster membership, wired over real TCP listeners. These
// are the cluster subsystem's acceptance tests — byte-identity with
// single-node output, zero duplicate computation, steal rescue,
// health-driven degradation, and the chaos smoke that `make
// cluster-smoke` runs under the race detector.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/faultinject"
	"repro/internal/runner"
)

// fleetNode is one member of an in-process fleet.
type fleetNode struct {
	svc  *Service
	cl   *cluster.Cluster
	hs   *http.Server
	addr string // host:port, the ring member name
	url  string
}

// bootFleet starts n complete nodes. All listeners are opened before
// any cluster is built so every node knows the full (final) membership
// up front — the static-peer-list deployment model. The optional hooks
// adjust one node's service config, cluster config, or wrap its
// listener (chaos injection) / handler (latency middleware).
func bootFleet(t testing.TB, n int,
	cfgMut func(i int, cfg *Config),
	clMut func(i int, cfg *cluster.Config),
	wrapLn func(i int, ln net.Listener) net.Listener,
	wrapH func(i int, h http.Handler) http.Handler,
) []*fleetNode {
	t.Helper()
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	nodes := make([]*fleetNode, n)
	for i := range nodes {
		ccfg := cluster.Config{
			Self:          addrs[i],
			Peers:         addrs,
			ProbeInterval: 50 * time.Millisecond,
			ProbeTimeout:  2 * time.Second,
		}
		if clMut != nil {
			clMut(i, &ccfg)
		}
		cl, err := cluster.New(ccfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{
			CacheDir: t.TempDir() + "/cache",
			Cluster:  cl,
		}
		if cfgMut != nil {
			cfgMut(i, &cfg)
		}
		s := New(cfg)
		var h http.Handler = s.Handler()
		if wrapH != nil {
			h = wrapH(i, h)
		}
		hs := &http.Server{Handler: h}
		ln := lns[i]
		if wrapLn != nil {
			ln = wrapLn(i, ln)
		}
		go func() { _ = hs.Serve(ln) }()
		cl.Start()
		nodes[i] = &fleetNode{svc: s, cl: cl, hs: hs, addr: addrs[i], url: "http://" + addrs[i]}
	}
	t.Cleanup(func() {
		for _, nd := range nodes {
			_ = nd.hs.Close()
		}
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		for _, nd := range nodes {
			if err := nd.svc.Drain(ctx); err != nil {
				t.Errorf("drain %s: %v", nd.addr, err)
			}
		}
	})
	return nodes
}

// seedSweepBody builds a seeded fig2 sweep: nSeeds cells at tiny scale.
func seedSweepBody(nSeeds int, accesses uint64) string {
	seeds := make([]string, nSeeds)
	for i := range seeds {
		seeds[i] = fmt.Sprint(i + 1)
	}
	return fmt.Sprintf(`{"experiments":["fig2"],"accesses":%d,"instructions":%d,"seeds":[%s]}`,
		accesses, accesses, strings.Join(seeds, ","))
}

// fleetMissTotal sums memo-cache misses across the fleet — the number
// of cells actually computed anywhere. Equality with the cell count is
// the zero-duplicate-computation property.
func fleetMissTotal(nodes []*fleetNode) uint64 {
	var total uint64
	for _, nd := range nodes {
		_, m := nd.svc.Cache().Stats()
		total += m
	}
	return total
}

// TestClusterHeaderContractsAgree pins the cross-package header names
// the forwarding protocol depends on. cluster mirrors these constants
// (it cannot import service), so drift would silently break priority
// and idempotency propagation.
func TestClusterHeaderContractsAgree(t *testing.T) {
	if cluster.PriorityHeader != PriorityHeader {
		t.Errorf("cluster.PriorityHeader = %q, service.PriorityHeader = %q", cluster.PriorityHeader, PriorityHeader)
	}
	if client.IdempotencyHeader != IdemHeader {
		t.Errorf("client.IdempotencyHeader = %q, service.IdemHeader = %q", client.IdempotencyHeader, IdemHeader)
	}
}

// TestFleetSweepByteIdenticalNoDuplicates is the core distribution
// property: a 3-node fleet executes a seeded sweep with remote
// forwarding and cross-node cache fill, produces byte-identical NDJSON
// to a single-node run, computes every cell exactly once fleet-wide,
// and replays entirely from the origin's cache afterwards. It also
// checks trace propagation: peers hold spans under the origin's job ID.
func TestFleetSweepByteIdenticalNoDuplicates(t *testing.T) {
	const cells = 24
	body := seedSweepBody(cells, 200)

	// Single-node reference (no cluster at all).
	_, ref := newTestService(t, Config{})
	rr := postJSON(t, ref.URL+"/v1/sweep", body)
	refBytes := readAll(t, rr.Body)
	rr.Body.Close()
	if rr.StatusCode != http.StatusOK {
		t.Fatalf("reference sweep: status %d: %s", rr.StatusCode, refBytes)
	}

	nodes := bootFleet(t, 3, nil, nil, nil, nil)
	fr := postJSON(t, nodes[0].url+"/v1/sweep", body)
	fleetBytes := readAll(t, fr.Body)
	fr.Body.Close()
	if fr.StatusCode != http.StatusOK {
		t.Fatalf("fleet sweep: status %d: %s", fr.StatusCode, fleetBytes)
	}
	jobID := fr.Header.Get("X-Mct-Job")

	if !bytes.Equal(refBytes, fleetBytes) {
		t.Errorf("fleet NDJSON differs from single-node:\nsingle: %s\nfleet:  %s", refBytes, fleetBytes)
	}
	cs := nodes[0].cl.Counters()
	if cs.Forwards == 0 {
		t.Error("coordinator forwarded nothing — the ring routed every cell locally, distribution untested")
	}
	if cs.CacheFills == 0 {
		t.Error("no cross-node cache fills — forwarded results were not written through")
	}
	if got := fleetMissTotal(nodes); got != cells {
		t.Errorf("fleet computed %d cells for a %d-cell sweep (duplicate or lost computation)", got, cells)
	}

	// Replay: the origin now holds every cell (local computes + write-
	// through fills), so a rerun is all local hits, no new forwards, and
	// byte-identical again.
	fwdBefore := nodes[0].cl.Counters().Forwards
	r2 := postJSON(t, nodes[0].url+"/v1/sweep", body)
	replay := readAll(t, r2.Body)
	r2.Body.Close()
	if !bytes.Equal(refBytes, replay) {
		t.Error("replay NDJSON differs from the original")
	}
	if got := fleetMissTotal(nodes); got != cells {
		t.Errorf("replay recomputed: fleet misses %d, want still %d", got, cells)
	}
	if after := nodes[0].cl.Counters().Forwards; after != fwdBefore {
		t.Errorf("replay forwarded %d cells despite local fills", after-fwdBefore)
	}

	// Trace propagation: a peer that executed forwarded cells serves
	// spans for the origin's job ID even though it has no job record.
	peerSpans := 0
	for _, nd := range nodes[1:] {
		resp, err := http.Get(nd.url + "/v1/trace/" + jobID)
		if err != nil {
			t.Fatal(err)
		}
		tb := readAll(t, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK && bytes.Contains(tb, []byte("cluster.cell")) {
			peerSpans++
		}
	}
	if peerSpans == 0 {
		t.Error("no peer holds cluster.cell spans under the origin job ID — trace propagation broken")
	}
}

// TestFleetForwardPropagatesCallerMeta drives a spec-path classify
// (one request = one cell) whose cell is remote-owned and asserts the
// owner saw the CALLER's idempotency key and priority — the
// whole-request forward contract, end to end through the service.
func TestFleetForwardPropagatesCallerMeta(t *testing.T) {
	var mu sync.Mutex
	seen := map[string][]string{} // header -> values observed at any node's cell endpoint
	record := func(r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		for _, h := range []string{IdemHeader, PriorityHeader, cluster.TraceIDHeader} {
			if v := r.Header.Get(h); v != "" {
				seen[h] = append(seen[h], v)
			}
		}
	}
	wrapH := func(i int, h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/cluster/cell" {
				record(r)
			}
			h.ServeHTTP(w, r)
		})
	}
	nodes := bootFleet(t, 2, nil, nil, nil, wrapH)
	w := anyWorkload(t)

	// Walk spec seeds until the cell lands on the remote node, so the
	// request is guaranteed to forward.
	var spec string
	for seed := uint64(1); seed < 200; seed++ {
		cand := fmt.Sprintf(`{"workload":%q,"accesses":4000,"size_kb":8,"assoc":2,"seed":%d}`, w, seed)
		var cs ClassifySpec
		if err := json.Unmarshal([]byte(cand), &cs); err != nil {
			t.Fatal(err)
		}
		if err := cs.normalize(false, 0); err != nil {
			t.Fatal(err)
		}
		key, err := runner.Key(classifySlug, cs)
		if err != nil {
			t.Fatal(err)
		}
		if owner, local := nodes[0].cl.Owner(key); !local && owner == nodes[1].addr {
			spec = cand
			break
		}
	}
	if spec == "" {
		t.Fatal("no remote-owned classify spec found in 200 seeds")
	}

	req, err := http.NewRequest("POST", nodes[0].url+"/v1/classify", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(IdemHeader, "caller-chose-this-key")
	req.Header.Set(PriorityHeader, "low")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	b := readAll(t, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("classify: status %d: %s", resp.StatusCode, b)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(seen[IdemHeader]) == 0 {
		t.Fatal("owner never saw a forwarded cell")
	}
	for _, v := range seen[IdemHeader] {
		if v != "caller-chose-this-key" {
			t.Errorf("forwarded idempotency key = %q, want the caller's key unchanged", v)
		}
	}
	for _, v := range seen[PriorityHeader] {
		if v != "low" {
			t.Errorf("forwarded priority = %q, want low", v)
		}
	}
	if len(seen[cluster.TraceIDHeader]) == 0 {
		t.Error("forwarded cell carried no trace ID")
	}
}

// TestFleetCacheFillRaceConverges races the same cell on both nodes of
// a 2-node fleet (satellite d): concurrent callers on the non-owner
// coalesce into ONE forward (the singleflight), the owner computes at
// most once itself, every caller gets byte-identical bytes, and both
// nodes afterwards replay the one stored result identically.
func TestFleetCacheFillRaceConverges(t *testing.T) {
	nodes := bootFleet(t, 2, nil, nil, nil, nil)

	// Find a cell owned by node 1 so node 0 must forward.
	var p experiments.Params
	found := false
	for seed := uint64(1); seed < 200; seed++ {
		cand := experiments.Params{MemAccesses: 200, Instructions: 200, Seed: seed}
		key, err := runner.Key("fig2", cand)
		if err != nil {
			t.Fatal(err)
		}
		if owner, local := nodes[0].cl.Owner(key); !local && owner == nodes[1].addr {
			p, found = cand, true
			break
		}
	}
	if !found {
		t.Fatal("no node-1-owned cell in 200 seeds")
	}

	const callersPerNode = 4
	results := make([][]byte, 2*callersPerNode)
	errs := make([]error, 2*callersPerNode)
	var wg sync.WaitGroup
	for n := 0; n < 2; n++ {
		for c := 0; c < callersPerNode; c++ {
			wg.Add(1)
			go func(idx int, s *Service) {
				defer wg.Done()
				raw, _, err := s.resolveCell(context.Background(), s.experimentCell("fig2", "fig2", p), true)
				results[idx], errs[idx] = raw, err
			}(n*callersPerNode+c, nodes[n].svc)
		}
	}
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("caller %d: %v", i, err)
		}
	}
	for i := 1; i < len(results); i++ {
		if !bytes.Equal(results[0], results[i]) {
			t.Fatalf("caller %d result differs from caller 0:\n%s\nvs\n%s", i, results[0], results[i])
		}
	}
	// Convergence: the cell computed exactly once fleet-wide. The
	// non-owner's callers singleflight into one forward; on the owner,
	// concurrent local callers and the forwarded execution share one
	// cell flight, so only one of them runs the compute.
	if got := fleetMissTotal(nodes); got != 1 {
		t.Errorf("race computed the cell %d times across 2 nodes, want exactly 1", got)
	}
	if fwd := nodes[0].cl.Counters().Forwards; fwd > 1 {
		t.Errorf("non-owner issued %d forwards for one cell, want <= 1 (singleflight)", fwd)
	}

	// Both caches now hold the identical entry, and replay hits locally.
	key, _ := runner.Key("fig2", p)
	r0, ok0 := nodes[0].svc.Cache().LoadRaw("fig2", key)
	r1, ok1 := nodes[1].svc.Cache().LoadRaw("fig2", key)
	if !ok0 || !ok1 {
		t.Fatalf("stored result missing: node0=%v node1=%v", ok0, ok1)
	}
	if !bytes.Equal(r0, r1) {
		t.Errorf("stored results diverge:\nnode0: %s\nnode1: %s", r0, r1)
	}
	if !bytes.Equal(r0, results[0]) {
		t.Errorf("stored result differs from what callers got")
	}
}

// TestFleetStealRescuesStraggler wedges the owner's cell endpoint and
// asserts the work-stealing hedge completes the cell locally, fast,
// instead of waiting out the straggler.
func TestFleetStealRescuesStraggler(t *testing.T) {
	slow := 1500 * time.Millisecond
	wrapH := func(i int, h http.Handler) http.Handler {
		if i != 1 {
			return h
		}
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/cluster/cell" {
				select {
				case <-time.After(slow):
				case <-r.Context().Done():
					return
				}
			}
			h.ServeHTTP(w, r)
		})
	}
	nodes := bootFleet(t, 2, nil, func(i int, cfg *cluster.Config) {
		cfg.StealAfter = 50 * time.Millisecond
		cfg.ForwardAttempts = 1
	}, nil, wrapH)

	var p experiments.Params
	found := false
	for seed := uint64(1); seed < 200; seed++ {
		cand := experiments.Params{MemAccesses: 200, Instructions: 200, Seed: seed}
		key, err := runner.Key("fig2", cand)
		if err != nil {
			t.Fatal(err)
		}
		if owner, local := nodes[0].cl.Owner(key); !local && owner == nodes[1].addr {
			p, found = cand, true
			break
		}
	}
	if !found {
		t.Fatal("no node-1-owned cell in 200 seeds")
	}

	start := time.Now()
	raw, _, err := nodes[0].svc.resolveCell(context.Background(), nodes[0].svc.experimentCell("fig2", "fig2", p), true)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) == 0 {
		t.Fatal("empty result")
	}
	if elapsed >= slow {
		t.Errorf("cell took %v — waited out the straggler instead of stealing", elapsed)
	}
	if got := nodes[0].cl.Counters().Steals; got == 0 {
		t.Error("steal counter is zero though the owner was wedged")
	}
	// The stolen result is in the local cache (the steal stored it).
	key, _ := runner.Key("fig2", p)
	if _, ok := nodes[0].svc.Cache().LoadRaw("fig2", key); !ok {
		t.Error("stolen cell not in the local cache")
	}
}

// TestFleetEjectionComputesLocally kills a peer and asserts the
// survivor ejects it from the ring and completes a sweep entirely
// locally — health degradation moves work, it never fails jobs.
func TestFleetEjectionComputesLocally(t *testing.T) {
	nodes := bootFleet(t, 2, nil, func(i int, cfg *cluster.Config) {
		cfg.ProbeInterval = 20 * time.Millisecond
		cfg.FailThreshold = 2
		cfg.ForwardAttempts = 2
	}, nil, nil)

	// Kill node 1 outright (its Drain in cleanup is a no-op on a closed
	// server).
	_ = nodes[1].hs.Close()

	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if len(nodes[0].cl.Ring().Peers()) == 1 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := nodes[0].cl.Ring().Peers(); len(got) != 1 || got[0] != nodes[0].addr {
		t.Fatalf("ring after peer death = %v, want just self", got)
	}
	if nodes[0].cl.Counters().Ejections == 0 {
		t.Error("ejection counter is zero")
	}

	const cells = 6
	resp := postJSON(t, nodes[0].url+"/v1/sweep", seedSweepBody(cells, 200))
	body := readAll(t, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep with dead peer: status %d: %s", resp.StatusCode, body)
	}
	if bytes.Contains(body, []byte(`"error"`)) {
		t.Fatalf("sweep lines carry errors:\n%s", body)
	}
	_, misses := nodes[0].svc.Cache().Stats()
	if misses != cells {
		t.Errorf("survivor computed %d cells, want all %d locally", misses, cells)
	}
}

// TestClusterChaosSmoke is the `make cluster-smoke` gate: a 3-node
// fleet runs a 200-cell sweep while one peer's listener injects
// connection resets. The job must complete, the fleet must compute
// every cell exactly once (cache-miss accounting), and the NDJSON must
// be byte-identical to a single-node run. Chaos is deterministic
// (seeded), so the schedule is reproducible; the resilient peer client
// plus the owner's idempotency store absorb the resets without
// recomputation.
func TestClusterChaosSmoke(t *testing.T) {
	const cells = 200
	body := seedSweepBody(cells, 200)

	_, ref := newTestService(t, Config{})
	rr := postJSON(t, ref.URL+"/v1/sweep", body)
	refBytes := readAll(t, rr.Body)
	rr.Body.Close()
	if rr.StatusCode != http.StatusOK {
		t.Fatalf("reference sweep: status %d", rr.StatusCode)
	}

	wrapLn := func(i int, ln net.Listener) net.Listener {
		if i != 2 {
			return ln
		}
		return faultinject.NetConfig{ResetProb: 0.05, Seed: 7}.Listener(ln)
	}
	nodes := bootFleet(t, 3, nil, nil, wrapLn, nil)

	fr := postJSON(t, nodes[0].url+"/v1/sweep", body)
	fleetBytes := readAll(t, fr.Body)
	fr.Body.Close()
	if fr.StatusCode != http.StatusOK {
		t.Fatalf("fleet sweep under chaos: status %d: %s", fr.StatusCode, fleetBytes)
	}
	if !bytes.Equal(refBytes, fleetBytes) {
		t.Errorf("chaos-run NDJSON differs from single-node reference")
	}
	if bytes.Contains(fleetBytes, []byte(`"error"`)) {
		t.Errorf("sweep lines carry errors under chaos:\n%s", fleetBytes)
	}
	if got := fleetMissTotal(nodes); got != cells {
		t.Errorf("fleet computed %d cells for a %d-cell sweep under chaos (duplicates or losses)", got, cells)
	}
	cs := nodes[0].cl.Counters()
	if cs.Forwards == 0 {
		t.Error("no forwards happened — chaos smoke exercised nothing")
	}
	t.Logf("chaos smoke: forwards=%d forward_fails=%d fills=%d ejections=%d restores=%d",
		cs.Forwards, cs.ForwardFails, cs.CacheFills, cs.Ejections, cs.Restores)
}

// BenchmarkFleetSweep measures 3-node fleet throughput against a
// single node on a 24-cell seeded sweep and reports the ratio as
// speedup_x. Each iteration boots a fresh single node and a fresh fleet,
// so every cell is computed and no memo hit counts. It fails when the
// fleet's NDJSON differs from the single node's or the speedup falls
// below 2.2x.
//
// Methodology (one-core container): per-cell occupancy is modeled with
// an injected 60ms delay (the I/O-bound proxy — real cell compute at
// this scale is ~10ms of CPU, which a single core cannot parallelize).
// The single-node baseline runs Workers=1, a serial pool: cells pay
// the delay back to back. The fleet runs three nodes at Workers=1
// each; the coordinator's widened fan-out overlaps cell occupancy
// across in-flight forwards and nodes, which is exactly the
// distribution layer's job. On a multi-core host the same harness
// measures CPU-bound scaling instead, with the per-node compute gate
// bounding local work.
func BenchmarkFleetSweep(b *testing.B) {
	const cells = 24
	const delay = 60 * time.Millisecond
	body := seedSweepBody(cells, 200)

	restore := faultinject.Install(faultinject.Delay("sweep/", delay))
	defer restore()

	sweep := func(url string) ([]byte, time.Duration) {
		start := time.Now()
		resp := postJSON(b, url+"/v1/sweep", body)
		out := readAll(b, resp.Body)
		resp.Body.Close()
		elapsed := time.Since(start)
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("sweep on %s: status %d", url, resp.StatusCode)
		}
		return out, elapsed
	}
	var single, fleet time.Duration
	for i := 0; i < b.N; i++ {
		_, ref := newTestService(b, Config{Workers: 1})
		refBytes, s := sweep(ref.URL)
		nodes := bootFleet(b, 3, func(i int, cfg *Config) { cfg.Workers = 1 }, nil, nil, nil)
		fleetBytes, f := sweep(nodes[0].url)
		if !bytes.Equal(refBytes, fleetBytes) {
			b.Fatal("fleet NDJSON differs from single-node under the bench workload")
		}
		single += s
		fleet += f
	}
	speedup := single.Seconds() / fleet.Seconds()
	b.ReportMetric(speedup, "speedup_x")
	if speedup < 2.2 {
		b.Fatalf("fleet speedup %.2fx < 2.2x", speedup)
	}
}
