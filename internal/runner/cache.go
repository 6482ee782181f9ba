package runner

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// cacheSchema versions the on-disk format: the key derivation and the
// segment layout. Bump it when either changes; segments are named by
// schema, so a cache never reads another schema's segments and every
// old key misses cleanly.
const cacheSchema = 2

// DefaultCacheDir is where cmd/paperbench memoizes experiment results,
// relative to the working directory.
const DefaultCacheDir = "results/cache"

// QuarantineDirName is the subdirectory of the cache dir that copies of
// corrupt entries and damaged segments are written to for post-mortem
// inspection.
const QuarantineDirName = "quarantine"

// Cache is an on-disk memoization store for experiment results. Each
// open Cache appends its entries to segment files of its own (segment.go)
// and finds entries of every writer through a compact in-memory index,
// so one directory can be shared by any number of caches and processes.
// A nil *Cache is valid and always misses — the -nocache escape hatch.
//
// Damaged or unreadable entries (bit rot, a truncated disk, manual
// editing) are never trusted: every load checks the entry's checksum,
// and a bad entry is copied into QuarantineDirName with a sidecar
// .reason file and logged, so damage stays diagnosable while the run
// recomputes the cell cleanly. A write a crash cut short is skipped.
type Cache struct {
	dir  string
	logf func(format string, args ...any)
	// segLimit is the size at which the cache's own segment rotates.
	segLimit int64

	mu      sync.Mutex
	segs    []*segment          // every segment seen, by id
	byName  map[string]*segment // segs by file name
	idx     index
	w       *segment // own segment being appended to; nil until a store
	wsize   int64    // w's size
	listed  bool     // the directory has been indexed at least once
	scanBuf []byte   // header window for scans, allocated on first use

	hits        atomic.Uint64
	misses      atomic.Uint64
	quarantined atomic.Uint64
}

// Open returns a Cache rooted at dir. Nothing is read until the first
// lookup, and the directory and the cache's own segment are created
// lazily on the first store, so read-only usage never writes to the
// filesystem.
func Open(dir string) *Cache { return &Cache{dir: dir, segLimit: segmentBytes} }

// SetLogf installs the cache's diagnostic logger (quarantine reasons and
// similar non-fatal conditions). Install before the cache is used; nil
// (the default) discards diagnostics.
func (c *Cache) SetLogf(logf func(format string, args ...any)) {
	if c != nil {
		c.logf = logf
	}
}

func (c *Cache) log(format string, args ...any) {
	if c != nil && c.logf != nil {
		c.logf(format, args...)
	}
}

// Stats returns the cache's hit/miss counts for this process. A miss
// is a successfully computed (and therefore stored or storable) cell —
// failed or canceled computations count neither, so misses across a
// fleet sum to exactly the number of cells computed.
func (c *Cache) Stats() (hits, misses uint64) {
	if c == nil {
		return 0, 0
	}
	return c.hits.Load(), c.misses.Load()
}

// Quarantined returns how many corrupt entries and damaged segments this
// process copied to the quarantine directory.
func (c *Cache) Quarantined() uint64 {
	if c == nil {
		return 0
	}
	return c.quarantined.Load()
}

// Key derives the stable cache key for an experiment cell: a SHA-256 over
// the cache schema, the code version, the experiment slug, and the
// canonical JSON encoding of payload (the experiment's Params — scale,
// seed, everything that changes the result). encoding/json writes struct
// fields in declaration order and map keys sorted, so the encoding — and
// therefore the key — is deterministic across runs. DESIGN.md documents
// the scheme.
func Key(slug string, payload any) (string, error) {
	enc, err := json.Marshal(payload)
	if err != nil {
		return "", fmt.Errorf("runner: encoding cache key payload for %q: %w", slug, err)
	}
	h := sha256.New()
	fmt.Fprintf(h, "schema=%d\x00code=%s\x00slug=%s\x00", cacheSchema, CodeVersion(), slug)
	h.Write(enc)
	return hex.EncodeToString(h.Sum(nil)), nil
}

// codeVersion is resolved once from build info: the VCS revision (plus a
// dirty marker) when Go stamped one, else "unversioned-" plus a digest of
// the running executable itself. Results computed by different code
// versions therefore never collide — including unversioned builds (go run,
// test binaries, builds outside a VCS checkout), which previously all
// shared the literal key "unversioned" and could replay stale results
// across code changes. Only if the binary cannot even be re-read does the
// version degrade to the bare literal, where -nocache remains the escape
// hatch.
var codeVersionOnce = sync.OnceValue(func() string {
	bi, _ := debug.ReadBuildInfo()
	return codeVersionFrom(bi, executableDigest)
})

// codeVersionFrom derives the code-version string from build info, falling
// back to digest (the running binary's content hash) when no VCS revision
// was stamped. Split from codeVersionOnce so tests can exercise every
// fallback branch.
func codeVersionFrom(bi *debug.BuildInfo, digest func() (string, bool)) string {
	if bi != nil {
		rev, modified := "", ""
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					modified = "+dirty"
				}
			}
		}
		if rev != "" {
			return rev + modified
		}
	}
	if d, ok := digest(); ok {
		return "unversioned-" + d
	}
	return "unversioned"
}

// executableDigest hashes the running binary, so two different unversioned
// builds (different code states) get different cache keys.
func executableDigest() (string, bool) {
	exe, err := os.Executable()
	if err != nil {
		return "", false
	}
	return fileDigest(exe)
}

// fileDigest returns a short hex SHA-256 of the file's contents.
func fileDigest(path string) (string, bool) {
	f, err := os.Open(path)
	if err != nil {
		return "", false
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", false
	}
	return hex.EncodeToString(h.Sum(nil))[:16], true
}

// CodeVersion returns the code-version component of cache keys.
func CodeVersion() string { return codeVersionOnce() }

// LoadRaw reads the raw cached result for a key already derived with
// Key. A hit counts toward Stats; a miss counts nothing — the caller
// decides whether a computation follows (a cell may be forwarded to a
// peer instead, and a peer's pull must not inflate this node's miss
// count). StoreComputed counts the miss once a computation succeeds.
// Corruption handling matches load.
func (c *Cache) LoadRaw(slug, key string) (json.RawMessage, bool) {
	raw, _, ok := c.load(slug, key)
	if ok && c != nil {
		c.hits.Add(1)
	}
	return raw, ok
}

// NoteHit counts one hit answered in front of the cache — the service's
// in-memory artifact tier, or a lookup that shared a concurrent one's
// disk read — so Stats stays the single count of memo hits whichever
// tier served them.
func (c *Cache) NoteHit() {
	if c != nil {
		c.hits.Add(1)
	}
}

// StoreRaw writes a raw result under a pre-derived key — the cross-node
// cache-fill path: a cell computed by a remote owner is written through
// to the local cache so later lookups replay as local hits. Counts
// neither hit nor miss (the work happened elsewhere). The bytes came
// from a peer, so they are checked and put in the form every entry
// takes: compacted and HTML-escaped by json.Marshal.
func (c *Cache) StoreRaw(slug, key string, raw json.RawMessage) error {
	if c == nil {
		return nil
	}
	enc, err := json.Marshal(raw)
	if err != nil {
		return fmt.Errorf("runner: encoding cache entry %s: %w", slug, err)
	}
	return c.store(slug, key, enc)
}

// StoreComputed records a cell computed in this process under a key
// already derived with Key: it counts one miss and stores raw as is. raw
// must be json.Marshal output — valid, compact and HTML-escaped — which
// is the form StoreRaw and Memo give every entry. The miss is counted
// only here, once a computation has succeeded, so misses mean "cells
// this process computed": a canceled or failed attempt whose retry
// recomputes does not count the cell twice, and misses summed across a
// fleet equal the cells it computed. A store failure is logged, not
// returned: the result is correct, only its memoization is lost.
func (c *Cache) StoreComputed(slug, key string, raw json.RawMessage) {
	if c == nil {
		return
	}
	c.misses.Add(1)
	if err := c.store(slug, key, raw); err != nil {
		c.log("%v", err)
	}
}

// Memo returns the cached result for (slug, payload) if present, else runs
// compute, stores its result, and returns it. hit reports whether the
// value came from disk.
//
// The returned value is ALWAYS the JSON round-trip of the computed one —
// even on a cache miss — so a run that populates the cache and a run that
// hits it produce bit-identical output. A result type that loses
// information through JSON (an unexported field, say) therefore shows up
// immediately in golden tests instead of only on the second invocation.
func Memo[T any](c *Cache, slug string, payload any, compute func() (T, error)) (v T, hit bool, err error) {
	key, err := Key(slug, payload)
	if err != nil {
		return v, false, err
	}
	if raw, at, ok := c.load(slug, key); ok {
		if json.Unmarshal(raw, &v) == nil {
			if c != nil {
				c.hits.Add(1)
			}
			return v, true, nil
		}
		// Undecodable result (type changed without a code-version bump):
		// quarantine the evidence, then fall through and recompute.
		c.quarantine(at, fmt.Sprintf("result does not decode into the current %s result type", slug))
	}
	computed, err := compute()
	if err != nil {
		return v, false, err
	}
	raw, err := json.Marshal(computed)
	if err != nil {
		return v, false, fmt.Errorf("runner: encoding result %s: %w", slug, err)
	}
	if err := json.Unmarshal(raw, &v); err != nil {
		return v, false, fmt.Errorf("runner: round-tripping result %s: %w", slug, err)
	}
	c.StoreComputed(slug, key, raw)
	return v, false, nil
}
