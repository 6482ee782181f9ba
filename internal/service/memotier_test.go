package service

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"

	"repro/internal/faultinject"
)

// postSpec sends a JSON spec and returns the body and job ID of a 200.
func postSpec(t *testing.T, base, path, body string) ([]byte, string) {
	t.Helper()
	resp := postJSON(t, base+path, body)
	defer resp.Body.Close()
	out := readAll(t, resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: status %d: %s", path, resp.StatusCode, out)
	}
	return out, resp.Header.Get("X-Mct-Job")
}

// lookupTiers returns the tier attribute of each cache.lookup span of a
// job ("" for a miss).
func lookupTiers(t *testing.T, base, id string) []string {
	t.Helper()
	var tiers []string
	for _, sp := range jobSpans(t, base, id)["cache.lookup"] {
		tier, _ := sp.Attrs["tier"].(string)
		tiers = append(tiers, tier)
	}
	return tiers
}

func TestMemoTierEvictionStaysUnderBudget(t *testing.T) {
	const budget = 1000
	tier := newMemoTier(budget)
	body := func(n int) artifact { return artifact{Body: bytes.Repeat([]byte{'x'}, n)} }

	tier.add("too-big", body(budget/4+1))
	if b, n := tier.size(); b != 0 || n != 0 {
		t.Fatalf("a body over budget/4 was admitted: %d bytes, %d entries", b, n)
	}
	for i := 0; i < 20; i++ {
		tier.add(fmt.Sprint("k", i), body(200))
		// Keep k0 hot: it must survive every eviction.
		if _, ok := tier.get("k0"); !ok {
			t.Fatalf("after adding k%d the most recently used entry k0 was evicted", i)
		}
		if b, _ := tier.size(); b > budget {
			t.Fatalf("after adding k%d the tier holds %d bytes, over its %d-byte budget", i, b, budget)
		}
	}
	if b, n := tier.size(); b != 1000 || n != 5 {
		t.Errorf("tier holds %d bytes in %d entries, want 1000 in 5", b, n)
	}
	if _, ok := tier.get("k1"); ok {
		t.Error("least recently used entry k1 survived")
	}
	// Re-admitting a present key must not count its body twice.
	tier.add("k19", body(200))
	if b, n := tier.size(); b != 1000 || n != 5 {
		t.Errorf("re-admission changed the tier to %d bytes in %d entries", b, n)
	}
}

func TestMemoTierSkipsNeverRepeatedSpecs(t *testing.T) {
	s, srv := newTestService(t, Config{})
	for seed := 1; seed <= 6; seed++ {
		postSpec(t, srv.URL, "/v1/mrc", fmt.Sprintf(`{"workload":"gcc","accesses":4000,"sizes_kb":[8],"seed":%d}`, seed))
		postSpec(t, srv.URL, "/v1/classify", fmt.Sprintf(`{"workload":"swim","accesses":4000,"emit":"misses","seed":%d}`, seed))
	}
	if b, n := s.arts.size(); b != 0 || n != 0 {
		t.Errorf("distinct cold specs left %d bytes in %d entries in the memory tier, want none", b, n)
	}
	if got := scrapeMetrics(t, srv.URL)["mct_memo_memory_bytes"]; got != 0 {
		t.Errorf("mct_memo_memory_bytes = %v, want 0", got)
	}
}

func TestMemoTierDisabledByNoCache(t *testing.T) {
	s, srv := newTestService(t, Config{NoCache: true})
	if s.arts != nil {
		t.Fatal("NoCache service has a memory tier")
	}
	spec := `{"workload":"gcc","accesses":4000,"emit":"summary"}`
	var first []byte
	for i := 0; i < 3; i++ {
		before := s.records.Load()
		body, id := postSpec(t, srv.URL, "/v1/classify", spec)
		if i == 0 {
			first = body
		} else if !bytes.Equal(body, first) {
			t.Errorf("request %d body differs from the first", i)
		}
		var j Job
		decodeJob(t, srv.URL, id, &j)
		if j.CacheHits != 0 || j.CacheMisses != 1 {
			t.Errorf("request %d: hits %d misses %d, want a recompute (0/1)", i, j.CacheHits, j.CacheMisses)
		}
		if s.records.Load() == before {
			t.Errorf("request %d processed no records: it did not recompute", i)
		}
	}
}

func TestMemoTierHitCountsOnce(t *testing.T) {
	s, srv := newTestService(t, Config{})
	spec := `{"workload":"swim","accesses":3000,"size_kb":8,"emit":"misses"}`
	cold, coldID := postSpec(t, srv.URL, "/v1/classify", spec)
	_, diskID := postSpec(t, srv.URL, "/v1/classify", spec)
	if tiers := lookupTiers(t, srv.URL, coldID); len(tiers) != 1 || tiers[0] != "" {
		t.Errorf("cold cache.lookup tiers = %q, want one miss without a tier", tiers)
	}
	if tiers := lookupTiers(t, srv.URL, diskID); len(tiers) != 1 || tiers[0] != tierDisk {
		t.Errorf("disk-warm cache.lookup tiers = %q, want [%q]", tiers, tierDisk)
	}
	m0 := scrapeMetrics(t, srv.URL)
	if m0["mct_memo_memory_bytes"] == 0 {
		t.Fatal("a disk hit did not admit the artifact to the memory tier")
	}
	records := s.records.Load()

	body, id := postSpec(t, srv.URL, "/v1/classify", spec)
	if !bytes.Equal(body, cold) {
		t.Error("memory-tier replay differs from the cold body")
	}
	m1 := scrapeMetrics(t, srv.URL)
	if d := m1["mct_cache_hits_total"] - m0["mct_cache_hits_total"]; d != 1 {
		t.Errorf("memory hit moved mct_cache_hits_total by %v, want 1", d)
	}
	if d := m1["mct_cache_misses_total"] - m0["mct_cache_misses_total"]; d != 0 {
		t.Errorf("memory hit moved mct_cache_misses_total by %v, want 0", d)
	}
	var j Job
	decodeJob(t, srv.URL, id, &j)
	if j.CacheHits != 1 || j.CacheMisses != 0 {
		t.Errorf("memory-hit job: hits %d misses %d, want 1/0", j.CacheHits, j.CacheMisses)
	}
	if s.records.Load() != records {
		t.Error("memory hit processed records")
	}
	if tiers := lookupTiers(t, srv.URL, id); len(tiers) != 1 || tiers[0] != tierMemory {
		t.Errorf("cache.lookup tiers = %q, want [%q]", tiers, tierMemory)
	}
	if b, _ := s.arts.size(); m1["mct_memo_memory_bytes"] != float64(b) || b != len(cold) {
		t.Errorf("mct_memo_memory_bytes = %v, tier holds %d bytes; want both %d (the body)", m1["mct_memo_memory_bytes"], b, len(cold))
	}
}

// TestMemoTierFaultInjectionFiresOnMemoryHit: the tier is consulted
// inside the supervised task, so a transient fault injected into a
// request that memory would answer still fails its first attempt and
// is retried away.
func TestMemoTierFaultInjectionFiresOnMemoryHit(t *testing.T) {
	s, srv := newTestService(t, Config{})
	spec := `{"workload":"gcc","accesses":4000,"size_kb":8,"emit":"summary"}`
	cold, _ := postSpec(t, srv.URL, "/v1/classify", spec)
	postSpec(t, srv.URL, "/v1/classify", spec)
	if _, n := s.arts.size(); n != 1 {
		t.Fatalf("memory tier holds %d entries after the disk hit, want 1", n)
	}

	var mu sync.Mutex
	attempts := map[int]int{}
	fault := faultinject.ErrorN("classify/", 1)
	restore := faultinject.Install(func(ctx context.Context, label string, attempt int) error {
		if strings.HasPrefix(label, "classify/") {
			mu.Lock()
			attempts[attempt]++
			mu.Unlock()
		}
		return fault(ctx, label, attempt)
	})
	body, id := postSpec(t, srv.URL, "/v1/classify", spec)
	restore()

	if !bytes.Equal(body, cold) {
		t.Error("retried memory-tier replay differs from the cold body")
	}
	mu.Lock()
	if attempts[0] != 1 || attempts[1] != 1 {
		t.Errorf("classify task attempts = %v, want the first attempt failed and one retry", attempts)
	}
	mu.Unlock()
	var j Job
	decodeJob(t, srv.URL, id, &j)
	if j.CacheHits != 1 || j.CacheMisses != 0 {
		t.Errorf("retried job: hits %d misses %d, want 1/0", j.CacheHits, j.CacheMisses)
	}
	if tiers := lookupTiers(t, srv.URL, id); len(tiers) != 1 || tiers[0] != tierMemory {
		t.Errorf("cache.lookup tiers = %q, want [%q]", tiers, tierMemory)
	}
}

// TestMemoTierConcurrentReplays drives the tier from several goroutines
// at once: early rounds admit specs while other goroutines read them,
// and a budget of four of the six bodies forces evictions throughout.
// Every replay must match its cold body and count exactly one hit.
func TestMemoTierConcurrentReplays(t *testing.T) {
	s, _ := newTestService(t, Config{})
	ctx := context.Background()
	var cells []cell
	var colds [][]byte
	largest := 0
	for seed := uint64(1); seed <= 6; seed++ {
		sp := &ClassifySpec{Workload: "swim", Accesses: 3000, Seed: seed, Emit: EmitMisses}
		if err := sp.prepare(s); err != nil {
			t.Fatal(err)
		}
		c := endpointByKind("classify").cell(s, sp)
		out, err := s.resolveSpec(ctx, c)
		if err != nil {
			t.Fatal(err)
		}
		cells, colds = append(cells, c), append(colds, out.body)
		largest = max(largest, len(out.body))
	}
	s.arts = newMemoTier(4 * largest)
	h0, m0 := s.cache.Stats()
	const workers, rounds = 8, 30
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (g + r) % len(cells)
				out, err := s.resolveSpec(ctx, cells[i])
				if err != nil || out.hits != 1 || !bytes.Equal(out.body, colds[i]) {
					t.Errorf("worker %d round %d: hits %d, err %v, body matches %v", g, r, out.hits, err, bytes.Equal(out.body, colds[i]))
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if h1, m1 := s.cache.Stats(); h1-h0 != workers*rounds || m1 != m0 {
		t.Errorf("hits +%d misses +%d, want +%d and +0", h1-h0, m1-m0, workers*rounds)
	}
	b, n := s.arts.size()
	if b > s.arts.budget || n >= len(cells) {
		t.Errorf("tier holds %d bytes in %d entries; want at most %d bytes and an eviction among %d specs", b, n, s.arts.budget, len(cells))
	}
}

// BenchmarkResolveSpec measures the memo layer of a single-cell spec
// below HTTP: resolveSpec on an ~80 KB emit=misses classify artifact,
// built, computed and stored for a never-seen seed (cold), answered by
// the disk cache (file read, envelope and artifact decode), and answered
// by the memory tier.
func BenchmarkResolveSpec(b *testing.B) {
	s := New(Config{CacheDir: b.TempDir()})
	defer func() { _ = s.Drain(context.Background()) }()
	spec := func(seed uint64) cell {
		sp := &ClassifySpec{Workload: "tomcatv", Accesses: 9600, Emit: EmitMisses, Seed: seed}
		if err := sp.prepare(s); err != nil {
			b.Fatal(err)
		}
		return endpointByKind("classify").cell(s, sp)
	}
	c := spec(0)
	out, err := s.resolveSpec(context.Background(), c) // cold: compute and store
	if err != nil {
		b.Fatal(err)
	}
	seed := uint64(1 << 32) // past the warm cases' seed; never repeats across runs
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			seed++
			if o, err := s.resolveSpec(context.Background(), spec(seed)); err != nil || o.misses != 1 {
				b.Fatalf("cold resolve: misses %d, err %v", o.misses, err)
			}
		}
	})
	tier := s.arts
	for _, bc := range []struct {
		name string
		arts *memoTier
	}{{"disk", nil}, {"memory", tier}} {
		b.Run(bc.name, func(b *testing.B) {
			s.arts = bc.arts
			if _, err := s.resolveSpec(context.Background(), c); err != nil { // admits to the tier
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if o, err := s.resolveSpec(context.Background(), c); err != nil || o.hits != 1 {
					b.Fatalf("warm resolve: hits %d, err %v", o.hits, err)
				}
			}
			b.ReportMetric(float64(len(out.body)), "body_bytes")
		})
	}
}
