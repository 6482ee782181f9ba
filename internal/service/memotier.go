package service

import (
	"container/list"
	"sync"
)

// memoTierBudget bounds the artifact body bytes the in-memory memo tier
// holds. Bodies larger than a quarter of it are never admitted, so one
// large replay cannot flush the whole tier.
const memoTierBudget = 4 << 20

// memoTier is a small, byte-bounded LRU of decoded artifacts in front of
// the on-disk memo, keyed by memo key (runner.Key of the cell's slug and
// payload). An artifact enters only after a lookup hit it on disk, so a
// spec that is never repeated never takes tier memory. A repeated spec
// computes cold, then hits on disk (and is admitted), then replays from
// memory without reading or decoding its entry again.
//
// Entries are immutable once admitted: every request that hits an entry
// shares its Body slice and only ever reads it (writes it to the
// response, hands it to the idempotency store, which copies). Nothing
// may modify an artifact's Body after add.
//
// A nil *memoTier is valid and always misses — the NoCache case.
type memoTier struct {
	budget int

	mu    sync.Mutex
	bytes int
	lru   list.List // of *tierEntry, most recently used at the front
	byKey map[string]*list.Element
}

type tierEntry struct {
	key string
	art artifact
}

func newMemoTier(budget int) *memoTier {
	return &memoTier{budget: budget, byKey: map[string]*list.Element{}}
}

// get returns the artifact cached under key and marks it most recently
// used.
func (t *memoTier) get(key string) (artifact, bool) {
	if t == nil {
		return artifact{}, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.byKey[key]
	if !ok {
		return artifact{}, false
	}
	t.lru.MoveToFront(e)
	return e.Value.(*tierEntry).art, true
}

// add admits art under key, evicting least recently used entries until
// the tier is back under budget. Bodies over budget/4 are skipped.
func (t *memoTier) add(key string, art artifact) {
	if t == nil || len(art.Body) > t.budget/4 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if e, ok := t.byKey[key]; ok {
		// A concurrent disk hit on the same key already admitted it; the
		// artifacts are equal (same key, deterministic result).
		t.lru.MoveToFront(e)
		return
	}
	t.byKey[key] = t.lru.PushFront(&tierEntry{key: key, art: art})
	t.bytes += len(art.Body)
	for t.bytes > t.budget {
		old := t.lru.Remove(t.lru.Back()).(*tierEntry)
		delete(t.byKey, old.key)
		t.bytes -= len(old.art.Body)
	}
}

// size returns the body bytes and the number of entries the tier holds.
func (t *memoTier) size() (bytes, entries int) {
	if t == nil {
		return 0, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.bytes, t.lru.Len()
}
