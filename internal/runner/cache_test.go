package runner

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"strings"
	"testing"

	"repro/internal/frame"
)

type fakeParams struct {
	MemAccesses  uint64
	Instructions uint64
	Seed         uint64
}

type fakeResult struct {
	Name   string
	Values []float64
}

func TestKeyStableAndSensitive(t *testing.T) {
	p := fakeParams{MemAccesses: 1000, Instructions: 2000, Seed: 42}
	k1, err := Key("fig1", p)
	if err != nil {
		t.Fatal(err)
	}
	k2, _ := Key("fig1", p)
	if k1 != k2 {
		t.Fatal("key must be deterministic for equal inputs")
	}
	if len(k1) != 64 {
		t.Fatalf("key should be sha256 hex, got %d chars", len(k1))
	}
	// Any component change must change the key.
	if k, _ := Key("fig2", p); k == k1 {
		t.Fatal("slug must be part of the key")
	}
	p2 := p
	p2.Seed = 43
	if k, _ := Key("fig1", p2); k == k1 {
		t.Fatal("seed must be part of the key")
	}
	p3 := p
	p3.MemAccesses = 1001
	if k, _ := Key("fig1", p3); k == k1 {
		t.Fatal("scale must be part of the key")
	}
}

func TestMemoHitMissRoundTrip(t *testing.T) {
	c := Open(t.TempDir())
	p := fakeParams{MemAccesses: 10, Seed: 1}
	calls := 0
	compute := func() (fakeResult, error) {
		calls++
		return fakeResult{Name: "gcc", Values: []float64{1.5, 2.25}}, nil
	}

	v1, hit, err := Memo(c, "fig1", p, compute)
	if err != nil || hit {
		t.Fatalf("first call: hit=%v err=%v", hit, err)
	}
	v2, hit, err := Memo(c, "fig1", p, compute)
	if err != nil || !hit {
		t.Fatalf("second call: hit=%v err=%v", hit, err)
	}
	if calls != 1 {
		t.Fatalf("compute ran %d times, want 1", calls)
	}
	a, _ := json.Marshal(v1)
	b, _ := json.Marshal(v2)
	if string(a) != string(b) {
		t.Fatalf("cached result differs: %s vs %s", a, b)
	}
	if hits, misses := c.Stats(); hits != 1 || misses != 1 {
		t.Fatalf("stats = %d hits / %d misses", hits, misses)
	}
}

func TestMemoDistinctParamsDistinctCells(t *testing.T) {
	c := Open(t.TempDir())
	for _, seed := range []uint64{1, 2, 3} {
		seed := seed
		v, hit, err := Memo(c, "cell", fakeParams{Seed: seed}, func() (uint64, error) { return seed * 100, nil })
		if err != nil || hit {
			t.Fatalf("seed %d: hit=%v err=%v", seed, hit, err)
		}
		if v != seed*100 {
			t.Fatalf("seed %d: v=%d", seed, v)
		}
	}
	// Re-read all three: every one must hit with its own value.
	for _, seed := range []uint64{1, 2, 3} {
		v, hit, err := Memo(c, "cell", fakeParams{Seed: seed}, func() (uint64, error) { return 0, nil })
		if err != nil || !hit || v != seed*100 {
			t.Fatalf("seed %d reread: v=%d hit=%v err=%v", seed, v, hit, err)
		}
	}
}

func TestMemoNilCacheAlwaysComputes(t *testing.T) {
	var c *Cache
	calls := 0
	for i := 0; i < 2; i++ {
		v, hit, err := Memo(c, "x", 1, func() (int, error) { calls++; return 7, nil })
		if err != nil || hit || v != 7 {
			t.Fatalf("nil cache: v=%d hit=%v err=%v", v, hit, err)
		}
	}
	if calls != 2 {
		t.Fatalf("nil cache must always compute, ran %d", calls)
	}
}

func TestMemoCorruptEntryRecomputes(t *testing.T) {
	dir := t.TempDir()
	c := Open(dir)
	p := fakeParams{Seed: 9}
	if _, _, err := Memo(c, "x", p, func() (int, error) { return 5, nil }); err != nil {
		t.Fatal(err)
	}
	// Corrupt every body byte on disk, keeping each frame's header.
	for _, path := range segmentPaths(t, dir) {
		raw := readFile(t, path)
		for i := frame.HeaderSize; i < len(raw); i++ {
			raw[i] ^= 0x5a
		}
		writeFile(t, path, raw)
	}
	v, hit, err := Memo(Open(dir), "x", p, func() (int, error) { return 5, nil })
	if err != nil || hit || v != 5 {
		t.Fatalf("corrupt entry: v=%d hit=%v err=%v", v, hit, err)
	}
}

func TestMemoSlugMismatchMisses(t *testing.T) {
	// Paranoia check: even if two slugs somehow produced one key, the
	// entry's slug guards it. Simulate by storing an entry under slug A's
	// key with slug B inside.
	dir := t.TempDir()
	key, err := Key("a", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := Open(dir).store("b", key, json.RawMessage("3")); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := Open(dir).load("a", key); ok {
		t.Fatal("entry with mismatched slug must miss")
	}
}

func TestMemoRoundTripsEvenOnMiss(t *testing.T) {
	// The returned value is the JSON round-trip of the computed one, so
	// miss-path and hit-path output are bit-identical. A type with an
	// unexported field demonstrates: the field vanishes on BOTH paths.
	type leaky struct {
		Public int
		secret int
	}
	c := Open(t.TempDir())
	v, _, err := Memo(c, "leak", 1, func() (leaky, error) { return leaky{Public: 3, secret: 8}, nil })
	if err != nil {
		t.Fatal(err)
	}
	if v.secret != 0 || v.Public != 3 {
		t.Fatalf("miss path must return the round-tripped value, got %+v", v)
	}
}

func TestCodeVersionNonEmpty(t *testing.T) {
	if CodeVersion() == "" {
		t.Fatal("code version must never be empty")
	}
}

func TestCodeVersionFromVCSStamp(t *testing.T) {
	bi := &debug.BuildInfo{Settings: []debug.BuildSetting{
		{Key: "vcs.revision", Value: "abc123"},
	}}
	noDigest := func() (string, bool) { t.Fatal("digest must not run when VCS is stamped"); return "", false }
	if got := codeVersionFrom(bi, noDigest); got != "abc123" {
		t.Errorf("stamped clean = %q", got)
	}
	bi.Settings = append(bi.Settings, debug.BuildSetting{Key: "vcs.modified", Value: "true"})
	if got := codeVersionFrom(bi, noDigest); got != "abc123+dirty" {
		t.Errorf("stamped dirty = %q", got)
	}
}

// TestCodeVersionUnversionedCollision is the regression test for the
// stale-replay bug: without a VCS stamp, every build used to share the
// literal key "unversioned", so two different code states could collide in
// the cache and replay each other's results. The executable digest must
// now separate them.
func TestCodeVersionUnversionedCollision(t *testing.T) {
	dir := t.TempDir()
	binA := filepath.Join(dir, "a")
	binB := filepath.Join(dir, "b")
	if err := os.WriteFile(binA, []byte("code state A"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(binB, []byte("code state B"), 0o755); err != nil {
		t.Fatal(err)
	}
	digestOf := func(path string) func() (string, bool) {
		return func() (string, bool) { return fileDigest(path) }
	}
	vA := codeVersionFrom(nil, digestOf(binA))
	vB := codeVersionFrom(nil, digestOf(binB))
	if vA == "unversioned" || vB == "unversioned" {
		t.Fatalf("digest fallback not used: %q / %q", vA, vB)
	}
	if vA == vB {
		t.Fatalf("two different binaries share code version %q: cache entries would collide", vA)
	}
	// Same binary -> same version (the cache still works across runs of
	// one build).
	if again := codeVersionFrom(nil, digestOf(binA)); again != vA {
		t.Errorf("same binary gave different versions: %q vs %q", vA, again)
	}
	// Settings present but no vcs.revision behaves like nil build info.
	bi := &debug.BuildInfo{Settings: []debug.BuildSetting{{Key: "GOOS", Value: "linux"}}}
	if got := codeVersionFrom(bi, digestOf(binA)); got != vA {
		t.Errorf("unstamped build info gave %q, want %q", got, vA)
	}
}

func TestCodeVersionLastResort(t *testing.T) {
	failing := func() (string, bool) { return "", false }
	if got := codeVersionFrom(nil, failing); got != "unversioned" {
		t.Errorf("last resort = %q, want bare literal", got)
	}
}

// TestCodeVersionRunningBinary: the live path must produce a non-colliding
// version for this (unstamped) test binary.
func TestCodeVersionRunningBinary(t *testing.T) {
	v := CodeVersion()
	if v == "" {
		t.Fatal("empty code version")
	}
	if v == "unversioned" {
		// The test binary definitely exists on disk, so the digest
		// fallback must have produced a suffix unless the build is
		// VCS-stamped (in which case v is the revision, not the literal).
		t.Error("running binary resolved to the bare 'unversioned' literal; digest fallback failed")
	}
}

// --- Quarantine (corrupt-entry handling) ----------------------------------

func TestQuarantineCorruptEntry(t *testing.T) {
	dir := t.TempDir()
	c := Open(dir)
	p := fakeParams{Seed: 11}
	if _, _, err := Memo(c, "q", p, func() (int, error) { return 3, nil }); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Memo(c, "q", fakeParams{Seed: 12}, func() (int, error) { return 4, nil }); err != nil {
		t.Fatal(err)
	}
	key, _ := Key("q", p)
	seg := segmentPaths(t, dir)[0]
	raw := readFile(t, seg)
	_, size, _ := frame.Decode(raw)
	raw[size-1] ^= 0xff // the last byte of the first entry's result
	writeFile(t, seg, raw)

	c2 := Open(dir)
	var logged []string
	c2.SetLogf(func(format string, args ...any) {
		logged = append(logged, fmt.Sprintf(format, args...))
	})
	v, hit, err := Memo(c2, "q", p, func() (int, error) { return 3, nil })
	if err != nil || hit || v != 3 {
		t.Fatalf("corrupt entry: v=%d hit=%v err=%v", v, hit, err)
	}

	// A copy of the corrupt frame went to quarantine with its reason
	// sidecar; the damaged segment itself is left as it was, and the
	// recompute appended a fresh entry.
	qpath := filepath.Join(dir, QuarantineDirName, key+".frame")
	if got := readFile(t, qpath); !bytes.Equal(got, raw[:size]) {
		t.Errorf("quarantine must preserve the evidence:\n got %q\nwant %q", got, raw[:size])
	}
	reason := readFile(t, qpath+".reason")
	if !strings.Contains(string(reason), "checksum") {
		t.Errorf("reason = %q", reason)
	}
	if !bytes.Equal(readFile(t, seg), raw) {
		t.Error("quarantine modified the segment")
	}
	if c2.Quarantined() != 1 {
		t.Errorf("Quarantined() = %d, want 1", c2.Quarantined())
	}
	if len(logged) == 0 || !strings.Contains(logged[len(logged)-1], "quarantined") {
		t.Errorf("quarantine not logged: %v", logged)
	}
	if _, hit, _ := Memo(c2, "q", p, func() (int, error) { return 3, nil }); !hit {
		t.Error("recomputed entry should hit on the next lookup")
	}
	if _, hit, _ := Memo(Open(dir), "q", p, func() (int, error) { return 3, nil }); !hit {
		t.Error("recomputed entry should hit after a reopen")
	}
}

func TestQuarantineSlugMismatch(t *testing.T) {
	dir := t.TempDir()
	key, _ := Key("a", 1)
	if err := Open(dir).store("b", key, json.RawMessage("3")); err != nil {
		t.Fatal(err)
	}
	c := Open(dir)
	if _, _, ok := c.load("a", key); ok {
		t.Fatal("mismatched slug must miss")
	}
	if c.Quarantined() != 1 {
		t.Errorf("Quarantined() = %d, want 1", c.Quarantined())
	}
	if _, err := os.Stat(filepath.Join(dir, QuarantineDirName, key+".frame")); err != nil {
		t.Errorf("mismatched entry not quarantined: %v", err)
	}
}

func TestSchemaMismatchIsCleanMissNotQuarantine(t *testing.T) {
	// A schema bump is the documented migration path: another schema's
	// segments and the old one-file-per-entry layout are never read, and
	// nothing of them is treated as corruption.
	dir := t.TempDir()
	key, _ := Key("a", 1)
	src := Open(t.TempDir())
	if err := src.store("a", key, json.RawMessage("3")); err != nil {
		t.Fatal(err)
	}
	other := strings.Replace(filepath.Base(src.w.name), segPrefix, fmt.Sprintf("v%d-", cacheSchema+1), 1)
	writeFile(t, filepath.Join(dir, other), readFile(t, filepath.Join(src.dir, src.w.name)))
	writeFile(t, filepath.Join(dir, key+".json"), []byte(`{"schema":1,"slug":"a","result":3}`))
	c := Open(dir)
	if _, _, ok := c.load("a", key); ok {
		t.Fatal("another schema's entry must miss")
	}
	if c.Quarantined() != 0 {
		t.Errorf("schema mismatch quarantined %d entries; must be a clean miss", c.Quarantined())
	}
	for _, name := range []string{other, key + ".json"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("%s must stay in place: %v", name, err)
		}
	}
}

func TestQuarantineUndecodableResultType(t *testing.T) {
	// The envelope is fine but the result no longer decodes into the
	// caller's type (a type change without a code-version bump): Memo must
	// quarantine and recompute rather than fail.
	dir := t.TempDir()
	c := Open(dir)
	if _, _, err := Memo(c, "typed", 7, func() (string, error) { return "text", nil }); err != nil {
		t.Fatal(err)
	}
	c2 := Open(dir)
	v, hit, err := Memo(c2, "typed", 7, func() (int, error) { return 42, nil })
	if err != nil || hit || v != 42 {
		t.Fatalf("type-changed entry: v=%d hit=%v err=%v", v, hit, err)
	}
	if c2.Quarantined() != 1 {
		t.Errorf("Quarantined() = %d, want 1", c2.Quarantined())
	}
}

func TestNilCacheQuarantineAccessors(t *testing.T) {
	var c *Cache
	c.SetLogf(func(string, ...any) {})
	if c.Quarantined() != 0 {
		t.Error("nil cache Quarantined() != 0")
	}
}

// TestRawAccessorsCounterSemantics: the cluster layer's accounting
// invariant — summing misses across a fleet equals cells computed —
// depends on LoadRaw counting hits but never misses (a peek is not a
// commitment to compute) and StoreRaw counting nothing (a cross-node
// fill did its work elsewhere).
func TestRawAccessorsCounterSemantics(t *testing.T) {
	c := Open(t.TempDir())
	key, err := Key("raw-slug", map[string]int{"n": 7})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.LoadRaw("raw-slug", key); ok {
		t.Fatal("LoadRaw hit on empty cache")
	}
	if h, m := c.Stats(); h != 0 || m != 0 {
		t.Fatalf("after missed LoadRaw: hits=%d misses=%d, want 0/0 (a peek is not a miss)", h, m)
	}
	if err := c.StoreRaw("raw-slug", key, json.RawMessage(`{"v":7}`)); err != nil {
		t.Fatal(err)
	}
	if h, m := c.Stats(); h != 0 || m != 0 {
		t.Fatalf("after StoreRaw: hits=%d misses=%d, want 0/0 (remote fill is not local work)", h, m)
	}
	raw, ok := c.LoadRaw("raw-slug", key)
	if !ok || string(raw) != `{"v":7}` {
		t.Fatalf("LoadRaw after fill = (%q, %v)", raw, ok)
	}
	if h, m := c.Stats(); h != 1 || m != 0 {
		t.Fatalf("after hit LoadRaw: hits=%d misses=%d, want 1/0", h, m)
	}
	// The filled entry replays through Memo identically — the fleet-wide
	// cache-coherence property in miniature.
	v, hit, err := Memo(c, "raw-slug", map[string]int{"n": 7}, func() (map[string]int, error) {
		t.Fatal("Memo recomputed a remotely filled cell")
		return nil, nil
	})
	if err != nil || !hit || v["v"] != 7 {
		t.Fatalf("Memo over filled entry = (%v, %v, %v)", v, hit, err)
	}
	// Nil cache: raw accessors are as safe as the rest of the API.
	var nc *Cache
	if _, ok := nc.LoadRaw("s", key); ok {
		t.Error("nil cache LoadRaw hit")
	}
	if err := nc.StoreRaw("s", key, json.RawMessage(`{}`)); err != nil {
		t.Errorf("nil cache StoreRaw: %v", err)
	}
}

// TestMemoRawMessageMatchesRoundTrip: every entry holds json.Marshal
// output — compact, with <, > and & HTML-escaped. StoreRaw checks a
// peer's bytes and puts them in that form; StoreComputed stores bytes
// this process marshalled as they are and counts the miss. Either entry
// replays through LoadRaw, and through Memo, as exactly the JSON round
// trip.
func TestMemoRawMessageMatchesRoundTrip(t *testing.T) {
	in := json.RawMessage(" {\n\t\"a\" : \"<b>&c</b>\",  \"n\": [ 1, 2 ,3 ] ,\"o\":{ } }\n")
	const want = `{"a":"\u003cb\u003e\u0026c\u003c/b\u003e","n":[1,2,3],"o":{}}`
	// The reference: the round trip Memo applies to every result.
	enc, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var ref json.RawMessage
	if err := json.Unmarshal(enc, &ref); err != nil {
		t.Fatal(err)
	}
	if string(ref) != want {
		t.Fatalf("reference round trip = %s, want %s", ref, want)
	}

	c := Open(t.TempDir())
	peer, err := Key("raw", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.StoreRaw("raw", peer, in); err != nil {
		t.Fatal(err)
	}
	if err := c.StoreRaw("raw", peer, json.RawMessage(`{"a":`)); err == nil {
		t.Error("StoreRaw stored bytes that are not JSON")
	}
	own, err := Key("raw", 2)
	if err != nil {
		t.Fatal(err)
	}
	c.StoreComputed("raw", own, enc)
	if h, m := c.Stats(); h != 0 || m != 1 {
		t.Fatalf("after StoreRaw and StoreComputed: hits=%d misses=%d, want 0/1", h, m)
	}
	for _, key := range []string{peer, own} {
		if raw, ok := c.LoadRaw("raw", key); !ok || string(raw) != want {
			t.Errorf("LoadRaw = (%s, %v), want the round-trip bytes %s", raw, ok, want)
		}
	}
	for _, payload := range []int{1, 2} {
		v, hit, err := Memo(c, "raw", payload, func() (json.RawMessage, error) {
			t.Fatal("Memo recomputed a stored entry")
			return nil, nil
		})
		if err != nil || !hit || string(v) != want {
			t.Errorf("Memo = (%s, hit %v, %v), want the round-trip bytes %s", v, hit, err, want)
		}
	}
	if h, m := c.Stats(); h != 4 || m != 1 {
		t.Fatalf("stats = %d hits / %d misses, want 4/1", h, m)
	}
	c.NoteHit()
	if h, _ := c.Stats(); h != 5 {
		t.Errorf("NoteHit: hits = %d, want 5", h)
	}
	var nc *Cache // nil cache: a no-op like the rest of the API
	nc.NoteHit()
	nc.StoreComputed("raw", own, enc)
}

// BenchmarkMemoHitRaw measures one LoadRaw hit on a 100 KB entry: the
// index lookup, the frame read and its checksum; no JSON pass runs over
// the result bytes.
func BenchmarkMemoHitRaw(b *testing.B) {
	body := make([]byte, 75_000)
	for i := range body {
		body[i] = byte(i * 7)
	}
	result, err := json.Marshal(struct {
		Body  []byte `json:"body"`
		Count int    `json:"count"`
	}{body, len(body)})
	if err != nil {
		b.Fatal(err)
	}
	c := Open(b.TempDir())
	key, err := Key("bench-raw", 1)
	if err != nil {
		b.Fatal(err)
	}
	c.StoreComputed("bench-raw", key, result)
	b.SetBytes(int64(len(result)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := c.LoadRaw("bench-raw", key); !ok {
			b.Fatal("miss")
		}
	}
}
