package runner

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/durable"
	"repro/internal/frame"
)

func segmentPaths(t testing.TB, dir string) []string {
	t.Helper()
	names, err := segmentNames(dir)
	if err != nil {
		t.Fatal(err)
	}
	paths := make([]string, len(names))
	for i, name := range names {
		paths[i] = filepath.Join(dir, name)
	}
	return paths
}

func readFile(t testing.TB, path string) []byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func writeFile(t testing.TB, path string, raw []byte) {
	t.Helper()
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

// storeInts memoizes the values 0..n-1 under slug, one cell per seed.
func storeInts(t *testing.T, c *Cache, slug string, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, _, err := Memo(c, slug, i, func() (int, error) { return i * 10, nil }); err != nil {
			t.Fatal(err)
		}
	}
}

// hitInts reports which of the cells storeInts wrote hit through c, and
// fails on any hit with the wrong value.
func hitInts(t *testing.T, c *Cache, slug string, n int) []bool {
	t.Helper()
	hits := make([]bool, n)
	for i := range hits {
		key, _ := Key(slug, i)
		raw, ok := c.LoadRaw(slug, key)
		if ok && string(raw) != fmt.Sprint(i*10) {
			t.Fatalf("cell %d hit with %s, want %d", i, raw, i*10)
		}
		hits[i] = ok
	}
	return hits
}

// TestStoresAppendToOneSegment: N stores through one cache create one
// segment file, not N files, and a second cache on the same directory
// writes a segment of its own.
func TestStoresAppendToOneSegment(t *testing.T) {
	dir := t.TempDir()
	storeInts(t, Open(dir), "one", 50)
	storeInts(t, Open(dir), "two", 50)
	if segs := segmentPaths(t, dir); len(segs) != 2 {
		t.Fatalf("100 stores by two caches left %d segment files, want 2: %v", len(segs), segs)
	}
	ents, _ := os.ReadDir(dir)
	if len(ents) != 2 {
		t.Errorf("cache dir holds %d files, want only the 2 segments", len(ents))
	}
	c := Open(dir)
	for _, slug := range []string{"one", "two"} {
		for i, hit := range hitInts(t, c, slug, 50) {
			if !hit {
				t.Errorf("%s cell %d missed after reopen", slug, i)
			}
		}
	}
}

// TestNoStoreNoFiles: lookups alone never create the directory.
func TestNoStoreNoFiles(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	c := Open(dir)
	hitInts(t, c, "x", 3)
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Errorf("lookups created the cache dir: %v", err)
	}
}

// TestSegmentRotation: the own segment rotates at segLimit, and every
// entry of every segment hits after a reopen.
func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	c := Open(dir)
	c.segLimit = 256
	storeInts(t, c, "rot", 40)
	segs := segmentPaths(t, dir)
	if len(segs) < 5 {
		t.Fatalf("40 stores at a 256-byte limit left %d segments", len(segs))
	}
	for _, path := range segs[:len(segs)-1] {
		if fi, _ := os.Stat(path); fi.Size() < 256 || fi.Size() > 256+100 {
			t.Errorf("%s is %d bytes; a segment rotates once it reaches 256", filepath.Base(path), fi.Size())
		}
	}
	for i, hit := range hitInts(t, Open(dir), "rot", 40) {
		if !hit {
			t.Errorf("cell %d missed after reopen", i)
		}
	}
}

// TestSegmentSyncPolicies: stores under every fsync policy hit after a
// reopen (the durable paths run the same appends plus fsyncs).
func TestSegmentSyncPolicies(t *testing.T) {
	defer SetSyncPolicy(SyncPolicy())
	for _, p := range []durable.Policy{durable.PolicyOff, durable.PolicyData, durable.PolicyAlways} {
		SetSyncPolicy(p)
		dir := t.TempDir()
		storeInts(t, Open(dir), "sync", 5)
		for i, hit := range hitInts(t, Open(dir), "sync", 5) {
			if !hit {
				t.Errorf("policy %v: cell %d missed after reopen", p, i)
			}
		}
	}
}

// TestTornEntrySkipped: a segment cut inside its last frame (a crash mid-
// append) loses that entry only: it misses without quarantine, the
// entries before it hit, and its recompute hits after a reopen.
func TestTornEntrySkipped(t *testing.T) {
	dir := t.TempDir()
	storeInts(t, Open(dir), "torn", 4)
	seg := segmentPaths(t, dir)[0]
	raw := readFile(t, seg)
	writeFile(t, seg, raw[:len(raw)-3])

	c := Open(dir)
	if got := hitInts(t, c, "torn", 4); fmt.Sprint(got) != "[true true true false]" {
		t.Fatalf("hits after a torn tail = %v, want the first three", got)
	}
	if c.Quarantined() != 0 {
		t.Errorf("a torn tail quarantined %d entries; it is not damage", c.Quarantined())
	}
	if !bytes.Equal(readFile(t, seg), raw[:len(raw)-3]) {
		t.Error("the torn segment was modified")
	}
	storeInts(t, c, "torn", 4)
	if got := hitInts(t, Open(dir), "torn", 4); fmt.Sprint(got) != "[true true true true]" {
		t.Errorf("hits after the recompute = %v", got)
	}
}

// TestAppendInProgressPickedUpLater: a frame only partly visible at a
// segment's tail, or whole but failing its checksum, is skipped, and the
// next lookup that misses indexes it once the rest of its bytes have
// landed.
func TestAppendInProgressPickedUpLater(t *testing.T) {
	dir := t.TempDir()
	storeInts(t, Open(dir), "live", 3)
	seg := segmentPaths(t, dir)[0]
	raw := readFile(t, seg)
	_, size, err := frame.Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	last := len(raw) - size    // frames are equal-sized here
	zeroed := bytes.Clone(raw) // whole length, body not yet written
	clear(zeroed[len(raw)-20:])
	for _, partial := range [][]byte{raw[:last+5], raw[:last+frame.HeaderSize+10], raw[:len(raw)-1], zeroed} {
		cut := len(partial)
		writeFile(t, seg, partial)
		c := Open(dir)
		if got := hitInts(t, c, "live", 3); fmt.Sprint(got) != "[true true false]" {
			t.Fatalf("cut at %d: hits = %v, want the partial last frame skipped", cut, got)
		}
		writeFile(t, seg, raw)
		if got := hitInts(t, c, "live", 3); fmt.Sprint(got) != "[true true true]" {
			t.Fatalf("cut at %d: after the append completed, hits = %v", cut, got)
		}
		if c.Quarantined() != 0 {
			t.Fatalf("cut at %d: an append in progress was quarantined", cut)
		}
	}
}

// TestDamagedSegmentQuarantined: a frame header no writer could produce,
// with bytes after it, is damage: the entries before it hit, nothing at
// or past it is indexed, the segment is copied to quarantine with a
// reason, and the segment itself is left untouched.
func TestDamagedSegmentQuarantined(t *testing.T) {
	dir := t.TempDir()
	storeInts(t, Open(dir), "dmg", 4)
	seg := segmentPaths(t, dir)[0]
	raw := readFile(t, seg)
	_, size, _ := frame.Decode(raw)
	binary.LittleEndian.PutUint32(raw[size:], 3) // second frame: a 3-byte payload
	writeFile(t, seg, raw)

	c := Open(dir)
	if got := hitInts(t, c, "dmg", 4); fmt.Sprint(got) != "[true false false false]" {
		t.Fatalf("hits = %v, want only the frame before the damage", got)
	}
	if c.Quarantined() != 1 {
		t.Errorf("Quarantined() = %d, want 1", c.Quarantined())
	}
	q := filepath.Join(dir, QuarantineDirName, filepath.Base(seg))
	if !bytes.Equal(readFile(t, q), raw) {
		t.Error("the quarantine copy differs from the damaged segment")
	}
	if reason := readFile(t, q+".reason"); !strings.Contains(string(reason), fmt.Sprintf("offset %d", size)) {
		t.Errorf("reason = %q, want the damaged offset", reason)
	}
	if !bytes.Equal(readFile(t, seg), raw) {
		t.Error("the damaged segment was modified")
	}
	// Later misses do not quarantine it again, and the cache still works.
	hitInts(t, c, "dmg", 4)
	storeInts(t, c, "dmg", 4)
	if got := hitInts(t, c, "dmg", 4); fmt.Sprint(got) != "[true true true true]" || c.Quarantined() != 1 {
		t.Errorf("after recomputing: hits = %v, quarantined %d", got, c.Quarantined())
	}
}

// TestStoreBeforeFirstLookupStaysNewest: a cache whose first act is a
// store indexes the directory before it appends, so a later scan never
// replaces its entry with an older one from another segment.
func TestStoreBeforeFirstLookupStaysNewest(t *testing.T) {
	dir := t.TempDir()
	key, _ := Key("new", 1)
	if err := Open(dir).StoreRaw("new", key, []byte(`"old"`)); err != nil {
		t.Fatal(err)
	}
	c := Open(dir)
	if err := c.StoreRaw("new", key, []byte(`"new"`)); err != nil {
		t.Fatal(err)
	}
	hitInts(t, c, "other", 1) // a miss: the refresh scans the first segment
	if raw, ok := c.LoadRaw("new", key); !ok || string(raw) != `"new"` {
		t.Errorf("LoadRaw = (%s, %v), want the cache's own newer entry", raw, ok)
	}
}

// TestConcurrentStores: goroutines storing through two caches on one
// directory, each also reading the other's cells, leave every cell
// readable through both and through a fresh cache, in two segments.
func TestConcurrentStores(t *testing.T) {
	dir := t.TempDir()
	caches := []*Cache{Open(dir), Open(dir)}
	const workers, cells = 4, 40
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := caches[w%2]
			slug := fmt.Sprint("w", w)
			for i := 0; i < cells; i++ {
				if _, _, err := Memo(c, slug, i, func() (int, error) { return i * 10, nil }); err != nil {
					t.Error(err)
					return
				}
				key, _ := Key(fmt.Sprint("w", (w+1)%workers), i)
				if raw, ok := caches[(w+1)%2].LoadRaw(fmt.Sprint("w", (w+1)%workers), key); ok && string(raw) != fmt.Sprint(i*10) {
					t.Errorf("cross-cache read of cell %d = %s", i, raw)
				}
			}
		}(w)
	}
	wg.Wait()
	for _, c := range append(caches, Open(dir)) {
		for w := 0; w < workers; w++ {
			for i, hit := range hitInts(t, c, fmt.Sprint("w", w), cells) {
				if !hit {
					t.Errorf("cell w%d/%d missed", w, i)
				}
			}
		}
	}
	if segs := segmentPaths(t, dir); len(segs) != 2 {
		t.Errorf("two caches left %d segments", len(segs))
	}
}

// TestListCache lists every intact entry once, with its slug.
func TestListCache(t *testing.T) {
	dir := t.TempDir()
	if got, err := ListCache(dir); err != nil || len(got) != 0 {
		t.Fatalf("empty dir: %v, %v", got, err)
	}
	storeInts(t, Open(dir), "a", 2)
	storeInts(t, Open(dir), "a", 2) // the same keys again, from another writer
	storeInts(t, Open(dir), "b", 1)
	got, err := ListCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, e := range []struct {
		slug string
		i    int
	}{{"a", 0}, {"a", 1}, {"b", 0}} {
		key, _ := Key(e.slug, e.i)
		want[key] = e.slug
	}
	if len(got) != len(want) {
		t.Fatalf("ListCache = %v, want %d entries", got, len(want))
	}
	for _, e := range got {
		if want[e.Key] != e.Slug {
			t.Errorf("unexpected entry %+v", e)
		}
	}
	if _, err := ListCache(filepath.Join(dir, "missing")); err == nil {
		t.Error("a missing directory must be an error")
	}
}

// TestIndexBytesPerEntry pins the index's memory: at most 24 bytes per
// entry, and no heap object per entry.
func TestIndexBytesPerEntry(t *testing.T) {
	for _, n := range []int{20_000, 100_000, 300_000} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		x := new(index)
		r := rand.New(rand.NewPCG(1, uint64(n)))
		for i := 0; i < n; i++ {
			x.put(r.Uint64(), uint64(i))
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		per := float64(after.HeapAlloc-before.HeapAlloc) / float64(n)
		objs := int64(after.HeapObjects) - int64(before.HeapObjects)
		runtime.KeepAlive(x)
		t.Logf("%d entries: %.1f B per entry, %d heap objects", n, per, objs)
		if per > 24 {
			t.Errorf("%d entries: index holds %.1f B per entry, over 24", n, per)
		}
		if objs > 1000 {
			t.Errorf("%d entries: index holds %d heap objects", n, objs)
		}
	}
}

// TestIndexMatchesMap drives the index and a map with the same puts and
// deletes, across merges, and compares every lookup.
func TestIndexMatchesMap(t *testing.T) {
	r := rand.New(rand.NewPCG(2, 3))
	x, ref := new(index), map[uint64]uint64{}
	for i := 0; i < 20_000; i++ {
		k := r.Uint64N(3000)
		switch r.IntN(4) {
		case 0:
			if v, ok := ref[k]; ok {
				x.del(k, v)
				delete(ref, k)
			}
		case 1:
			x.del(k, 12345) // a stale location never drops the entry
		default:
			x.put(k, uint64(i))
			ref[k] = uint64(i)
		}
		q := r.Uint64N(3000)
		v, ok := x.get(q)
		if rv, rok := ref[q]; ok != rok || v != rv {
			t.Fatalf("step %d: get(%d) = (%d, %v), want (%d, %v)", i, q, v, ok, rv, rok)
		}
	}
}

// TestCacheModel runs random sequences of stores, loads, reopens, a
// crash that tears a segment mid-frame and bit flips anywhere, against
// a map reference. Two writers share the directory, each storing its own
// keys: writer 0 overwrites its keys with new values, writer 1 always
// stores a key's one value, as memoized cells do. Checked:
//   - a load never returns a value not stored under its key, and returns
//     the last one stored unless a miss, whenever the key's newest frame
//     is undamaged (for writer 0's keys, through writer 0: another reader
//     may hold an older value it indexed before the overwrite);
//   - after a reopen every key whose newest frame is undamaged hits;
//   - the directory holds at most one segment per cache instance.
func TestCacheModel(t *testing.T) {
	for seed := uint64(1); seed <= 30; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) { runCacheModel(t, seed) })
	}
}

// modelFrame is the newest frame stored under a key.
type modelFrame struct {
	seg string // segment name
	end int64  // offset just past the frame
	val string
}

func runCacheModel(t *testing.T, seed uint64) {
	const slug, keys = "model", 12
	r := rand.New(rand.NewPCG(seed, 99))
	dir := t.TempDir()
	writers := [2]*Cache{Open(dir), Open(dir)}
	instances := 2
	keyOf := make([]string, keys)
	for i := range keyOf {
		keyOf[i], _ = Key(slug, i)
	}
	vals := make([]map[string]bool, keys) // every value stored per key
	newest := make([]*modelFrame, keys)
	damagedAt := map[string]int64{} // segment name -> first damaged byte
	damaged := func(f *modelFrame) bool {
		at, ok := damagedAt[f.seg]
		return ok && f.end > at
	}
	check := func(step int, c *Cache, k int, strict bool) {
		raw, ok := c.LoadRaw(slug, keyOf[k])
		if !ok {
			return
		}
		var v string
		if err := json.Unmarshal(raw, &v); err != nil || !vals[k][v] {
			t.Fatalf("step %d: key %d returned %s, never stored under it", step, k, raw)
		}
		if f := newest[k]; strict && !damaged(f) && v != f.val {
			t.Fatalf("step %d: key %d returned %q, want the last stored %q", step, k, v, f.val)
		}
	}
	checkAllHit := func(step int, c *Cache) {
		for k, f := range newest {
			if f == nil || damaged(f) {
				continue
			}
			raw, ok := c.LoadRaw(slug, keyOf[k])
			if want, _ := json.Marshal(f.val); !ok || !bytes.Equal(raw, want) {
				t.Fatalf("step %d: after a reopen key %d = (%s, %v), want %s", step, k, raw, ok, want)
			}
		}
	}
	reopen := func(w int) {
		writers[w] = Open(dir)
		instances++
	}
	for step := 0; step < 300; step++ {
		switch op := r.IntN(20); {
		case op < 9: // store
			w := r.IntN(2)
			k := 2*r.IntN(keys/2) + w
			v := fmt.Sprintf("k%d", k)
			if w == 0 {
				v = fmt.Sprintf("k%d-step%d", k, step)
			}
			raw, _ := json.Marshal(v)
			c := writers[w]
			if err := c.StoreRaw(slug, keyOf[k], raw); err != nil {
				t.Fatal(err)
			}
			if vals[k] == nil {
				vals[k] = map[string]bool{}
			}
			vals[k][v] = true
			newest[k] = &modelFrame{seg: c.w.name, end: c.wsize, val: v}
		case op < 15: // load
			k := r.IntN(keys)
			w := r.IntN(2)
			check(step, writers[w], k, k%2 == 1 || w == 0)
		case op < 17: // reopen a writer
			w := r.IntN(2)
			reopen(w)
			checkAllHit(step, writers[w])
		case op < 18: // crash mid-append: tear the writer's segment, reopen
			w := r.IntN(2)
			c := writers[w]
			if c.w == nil || c.wsize == 0 {
				continue
			}
			at := r.Int64N(c.wsize)
			if err := os.Truncate(filepath.Join(dir, c.w.name), at); err != nil {
				t.Fatal(err)
			}
			if prev, ok := damagedAt[c.w.name]; !ok || at < prev {
				damagedAt[c.w.name] = at
			}
			reopen(w)
			checkAllHit(step, writers[w])
		default: // flip a byte of any segment
			segs := segmentPaths(t, dir)
			if len(segs) == 0 {
				continue
			}
			path := segs[r.IntN(len(segs))]
			raw := readFile(t, path)
			if len(raw) == 0 {
				continue
			}
			at := r.Int64N(int64(len(raw)))
			raw[at] ^= byte(1 + r.IntN(255))
			writeFile(t, path, raw)
			if prev, ok := damagedAt[filepath.Base(path)]; !ok || at < prev {
				damagedAt[filepath.Base(path)] = at
			}
		}
	}
	if segs := segmentPaths(t, dir); len(segs) > instances {
		t.Errorf("%d cache instances left %d segments", instances, len(segs))
	}
}

// BenchmarkMemoStore measures one Memo miss that stores a 1.5 KB result:
// the key, the lookup that misses (with its directory refresh), the
// result's JSON round trip and the append.
func BenchmarkMemoStore(b *testing.B) {
	body := json.RawMessage(`"` + strings.Repeat("x", 1500) + `"`)
	c := Open(b.TempDir())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, hit, err := Memo(c, "bench-store", i, func() (json.RawMessage, error) { return body, nil }); err != nil || hit {
			b.Fatalf("hit=%v err=%v", hit, err)
		}
	}
}
