package runner

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"

	"repro/internal/durable"
	"repro/internal/frame"
)

// The memo cache's on-disk layout. Every open Cache appends its entries
// to a segment file of its own, named
//
//	v<schema>-<pid>-<seq>-<random>.memo
//
// so no two caches, in one process or in several, ever write to the same
// file. Each entry is one frame (package frame: length + CRC32C) whose
// payload is
//
//	key (32 bytes, the binary SHA-256) | slug length (u16 LE) | slug | result JSON
//
// A segment rotates once it reaches segmentBytes. Readers index every
// segment in the directory from the frame headers and keys alone, and
// check a body's checksum only when a lookup reads it.
const (
	segmentBytes = 16 << 20
	segSuffix    = ".memo"
	keyBytes     = sha256.Size
	// entryHead is what a scan reads of each frame: the header and key.
	entryHead = frame.HeaderSize + keyBytes
	// minPayload is the shortest well-formed payload: a key, an empty
	// slug and no result.
	minPayload = keyBytes + 2
	// scanWindow bounds one read of a scan; frames larger than it are
	// skipped without reading their bodies.
	scanWindow = 64 << 10
	// offBits is the offset's share of a packed location; the segment id
	// takes the rest.
	offBits = 40
)

// segPrefix starts the name of every segment of the current schema.
var segPrefix = fmt.Sprintf("v%d-", cacheSchema)

// segSeq numbers the segments this process creates.
var segSeq atomic.Uint64

// segment is one segment file as this cache knows it.
type segment struct {
	id   int
	name string
	f    *os.File // held open for reads (and, for an own segment, appends)
	own  bool     // this cache writes it: indexed as it appends, never scanned
	next int64    // offset of the first frame not yet indexed
	dead bool     // damage found at next: nothing past it is indexed
}

// loc is where an entry was found, for quarantining it.
type loc struct {
	s   *segment
	off int64
	key [keyBytes]byte
}

// pack and unpack convert a location to and from an index value.
func pack(id int, off int64) uint64 { return uint64(id)<<offBits | uint64(off) }

func unpack(v uint64) (id int, off int64) {
	return int(v >> offBits), int64(v & (1<<offBits - 1))
}

// parseKey decodes a hex key as Key derives it.
func parseKey(key string) (k [keyBytes]byte, ok bool) {
	if len(key) != 2*keyBytes {
		return k, false
	}
	_, err := hex.Decode(k[:], []byte(key))
	return k, err == nil
}

// prefix is a key's index key: its first 8 bytes.
func prefix(k []byte) uint64 { return binary.LittleEndian.Uint64(k) }

// load reads a raw cached result; ok is false on a miss or any damage.
// Damage (a bad checksum, an unreadable or malformed frame, a slug that
// contradicts the lookup) is copied to quarantine for diagnosis and then
// treated as a miss, never fatal. An index hit whose full key differs (two
// keys sharing their first 8 bytes) is a plain miss.
func (c *Cache) load(slug, key string) (json.RawMessage, loc, bool) {
	if c == nil {
		return nil, loc{}, false
	}
	at := loc{}
	var ok bool
	if at.key, ok = parseKey(key); !ok {
		return nil, at, false
	}
	c.mu.Lock()
	v, ok := c.idx.get(prefix(at.key[:]))
	if !ok {
		// Pick up what other writers appended since the last scan.
		c.refreshLocked()
		v, ok = c.idx.get(prefix(at.key[:]))
	}
	if ok {
		id, off := unpack(v)
		at.s, at.off = c.segs[id], off
	}
	c.mu.Unlock()
	if !ok {
		return nil, at, false
	}
	payload, err := readFrame(at.s.f, at.off)
	if err != nil {
		c.quarantine(at, err.Error())
		return nil, at, false
	}
	k, eslug, result, err := splitEntry(payload)
	switch {
	case err != nil:
		c.quarantine(at, err.Error())
		return nil, at, false
	case !bytes.Equal(k, at.key[:]):
		return nil, at, false
	case string(eslug) != slug:
		c.quarantine(at, fmt.Sprintf("slug mismatch: entry says %q, lookup wants %q", eslug, slug))
		return nil, at, false
	}
	return result, at, true
}

// readFrame reads and checks the frame at off.
func readFrame(f *os.File, off int64) ([]byte, error) {
	var hdr [frame.HeaderSize]byte
	if _, err := f.ReadAt(hdr[:], off); err != nil {
		return nil, fmt.Errorf("unreadable frame header at offset %d: %v", off, err)
	}
	n, sum, err := frame.Header(hdr[:])
	if err != nil {
		return nil, fmt.Errorf("frame at offset %d: %v", off, err)
	}
	payload := make([]byte, n)
	if _, err := f.ReadAt(payload, off+frame.HeaderSize); err != nil {
		return nil, fmt.Errorf("unreadable frame body at offset %d: %v", off, err)
	}
	if !frame.Check(payload, sum) {
		return nil, fmt.Errorf("frame at offset %d: %v", off, frame.ErrChecksum)
	}
	return payload, nil
}

// splitEntry splits a checked payload into key, slug and result.
func splitEntry(p []byte) (key, slug, result []byte, err error) {
	if len(p) < minPayload {
		return nil, nil, nil, fmt.Errorf("malformed entry: %d-byte payload", len(p))
	}
	n := int(binary.LittleEndian.Uint16(p[keyBytes:]))
	if len(p) < minPayload+n {
		return nil, nil, nil, fmt.Errorf("malformed entry: slug of %d bytes in a %d-byte payload", n, len(p))
	}
	return p[:keyBytes], p[minPayload : minPayload+n], p[minPayload+n:], nil
}

// store appends one entry to the cache's own segment and indexes it.
// Under any sync policy but PolicyOff the append is fsynced before store
// returns: a re-driven job replays finished cells from the memo, so an
// entry must not evaporate after its cell reported done. Store failures
// are returned so the caller can warn, but callers treat them as
// non-fatal: the computation already succeeded.
func (c *Cache) store(slug, key string, result json.RawMessage) error {
	if c == nil {
		return nil
	}
	k, ok := parseKey(key)
	if !ok {
		return fmt.Errorf("runner: cache entry %s: malformed key %q", slug, key)
	}
	if len(slug) > math.MaxUint16 || minPayload+len(slug)+len(result) > frame.MaxPayload {
		return fmt.Errorf("runner: cache entry %s: %d result bytes do not fit one frame", slug, len(result))
	}
	var n [2]byte
	binary.LittleEndian.PutUint16(n[:], uint16(len(slug)))
	buf := frame.Append(make([]byte, 0, frame.HeaderSize+minPayload+len(slug)+len(result)), k[:], n[:], []byte(slug), result)

	p := writeSyncPolicy()
	c.mu.Lock()
	s, off, err := c.appendLocked(buf, p)
	c.mu.Unlock()
	if err != nil {
		return fmt.Errorf("runner: committing cache entry %s: %w", slug, err)
	}
	if err := durable.SyncFile(s.f, p); err != nil {
		return fmt.Errorf("runner: committing cache entry %s: %w", slug, err)
	}
	c.mu.Lock()
	c.idx.put(prefix(k[:]), pack(s.id, off))
	c.mu.Unlock()
	return nil
}

// appendLocked writes one frame to the own segment, creating or rotating
// it first when needed, and returns where the frame landed.
func (c *Cache) appendLocked(buf []byte, p durable.Policy) (*segment, int64, error) {
	if !c.listed {
		// Index what is already on disk first: a later scan must never
		// find frames older than this cache's own stores.
		c.refreshLocked()
	}
	if c.w == nil || c.wsize >= c.segLimit {
		if err := c.createSegmentLocked(p); err != nil {
			return nil, 0, err
		}
	}
	s, off := c.w, c.wsize
	// One Write call per frame; readers index only whole frames.
	if _, err := s.f.Write(buf); err != nil {
		// The write may have left part of the frame behind it. Nothing
		// may follow a partial frame (readers would take it for damage),
		// so the next store starts a new segment.
		c.w = nil
		return nil, 0, err
	}
	c.wsize += int64(len(buf))
	return s, off, nil
}

// createSegmentLocked creates a new own segment and makes it the one
// appended to. Under any sync policy but PolicyOff the directory is
// fsynced, so the segment's name is durable before any entry in it.
func (c *Cache) createSegmentLocked(p durable.Policy) error {
	if err := os.MkdirAll(c.dir, 0o755); err != nil {
		return fmt.Errorf("creating cache dir: %w", err)
	}
	var f *os.File
	var name string
	for {
		name = fmt.Sprintf("%s%010d-%06d-%08x%s", segPrefix, os.Getpid(), segSeq.Add(1), rand.Uint32(), segSuffix)
		var err error
		f, err = os.OpenFile(filepath.Join(c.dir, name), os.O_RDWR|os.O_CREATE|os.O_EXCL|os.O_APPEND, 0o644)
		if err == nil {
			break
		}
		if !errors.Is(err, os.ErrExist) {
			return fmt.Errorf("creating cache segment: %w", err)
		}
	}
	if err := durable.SyncDir(c.dir, p); err != nil {
		c.log("runner: %v", err)
	}
	c.w = c.addSegmentLocked(name, f)
	c.w.own = true
	c.wsize = 0
	return nil
}

func (c *Cache) addSegmentLocked(name string, f *os.File) *segment {
	s := &segment{id: len(c.segs), name: name, f: f}
	c.segs = append(c.segs, s)
	if c.byName == nil {
		c.byName = map[string]*segment{}
	}
	c.byName[name] = s
	return s
}

// refreshLocked opens the segments other writers created since the last
// refresh and indexes the frames appended to every segment since its
// last scan. Its cost is one directory listing and one fstat per segment
// plus the new frames' headers — never proportional to the entries
// already indexed.
func (c *Cache) refreshLocked() {
	c.listed = true
	names, err := segmentNames(c.dir)
	if err != nil {
		return // no directory yet: nothing stored
	}
	for _, name := range names {
		if c.byName[name] != nil {
			continue
		}
		f, err := os.Open(filepath.Join(c.dir, name))
		if err != nil {
			c.log("runner: opening cache segment %s: %v", name, err)
			continue
		}
		c.addSegmentLocked(name, f)
	}
	for _, s := range c.segs {
		if s.own || s.dead {
			continue
		}
		if fi, err := s.f.Stat(); err == nil && fi.Size() > s.next {
			c.scanLocked(s, fi.Size())
		}
	}
}

// segmentNames lists the current schema's segments in dir, sorted by
// name: for one process, the order they were created in.
func segmentNames(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir) // sorted by name
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		if name := e.Name(); strings.HasPrefix(name, segPrefix) && strings.HasSuffix(name, segSuffix) && !e.IsDir() {
			names = append(names, name)
		}
	}
	return names, nil
}

// scanLocked indexes the frames of s from s.next up to size, reading
// headers and keys, and the body only of the last frame. A frame that
// ends past size, or a last frame whose checksum fails, is an append
// still in progress (or one torn by a crash): the scan stops before it
// and the next refresh looks again. A header that no writer could have
// produced is damage: the segment's bytes are copied to quarantine and
// nothing at or past it is indexed. A bad checksum on a frame with bytes
// after it is found when a lookup reads that frame, which quarantines
// it. The segment itself is never modified; it may be another writer's.
func (c *Cache) scanLocked(s *segment, size int64) {
	var win []byte
	var winOff int64
	for s.next < size && s.next < 1<<offBits {
		off := s.next
		if size-off < entryHead {
			return // short frame at the tail
		}
		if off < winOff || off+entryHead > winOff+int64(len(win)) {
			if c.scanBuf == nil {
				c.scanBuf = make([]byte, scanWindow)
			}
			win = c.scanBuf[:min(int64(scanWindow), size-off)]
			if _, err := s.f.ReadAt(win, off); err != nil {
				return // shrank under us; the next refresh looks again
			}
			winOff = off
		}
		h := win[off-winOff:]
		n, _, err := frame.Header(h)
		if err == nil && n < minPayload {
			err = fmt.Errorf("frame declares a %d-byte payload, under the %d-byte minimum", n, minPayload)
		}
		if err != nil {
			c.damagedLocked(s, fmt.Sprintf("bad frame at offset %d: %v", off, err))
			return
		}
		end := off + frame.HeaderSize + int64(n)
		if end > size {
			return // short frame at the tail
		}
		if end == size {
			// The last frame may be one a crash tore after its length was
			// written: a bad checksum there is not yet damage.
			if _, err := readFrame(s.f, off); err != nil {
				return
			}
		}
		c.idx.put(prefix(h[frame.HeaderSize:]), pack(s.id, off))
		s.next = end
	}
}

// damagedLocked stops indexing s at s.next and copies the segment into
// the quarantine directory with a .reason sidecar.
func (c *Cache) damagedLocked(s *segment, reason string) {
	s.dead = true
	c.quarantined.Add(1)
	fi, err := s.f.Stat()
	if err == nil {
		raw := make([]byte, fi.Size())
		if _, err = s.f.ReadAt(raw, 0); err == nil {
			err = c.writeEvidence(s.name, raw, reason)
		}
	}
	if err != nil {
		c.log("runner: cache segment %s is damaged (%s) but the quarantine copy failed: %v", s.name, reason, err)
		return
	}
	c.log("runner: cache segment %s is damaged, copied to quarantine: %s", s.name, reason)
}

// quarantine copies the frame at `at` into the quarantine directory with a
// .reason sidecar and drops it from the index, so the lookup misses and
// the cell recomputes. Never fatal: the log records any failure.
func (c *Cache) quarantine(at loc, reason string) {
	c.quarantined.Add(1)
	c.mu.Lock()
	c.idx.del(prefix(at.key[:]), pack(at.s.id, at.off))
	c.mu.Unlock()
	// The evidence is the frame's bytes as they are on disk, however
	// damaged: its header and up to the length it declares.
	var raw []byte
	var hdr [frame.HeaderSize]byte
	if _, err := at.s.f.ReadAt(hdr[:], at.off); err == nil {
		n := binary.LittleEndian.Uint32(hdr[:])
		raw = make([]byte, frame.HeaderSize+int(min(n, frame.MaxPayload)))
		m, _ := at.s.f.ReadAt(raw, at.off)
		raw = raw[:m]
	}
	key := hex.EncodeToString(at.key[:])
	if err := c.writeEvidence(key+".frame", raw, fmt.Sprintf("%s (segment %s, offset %d)", reason, at.s.name, at.off)); err != nil {
		c.log("runner: cache entry %s is corrupt (%s) but the quarantine copy failed: %v", key, reason, err)
		return
	}
	c.log("runner: quarantined corrupt cache entry %s: %s", key, reason)
}

// writeEvidence writes data and its .reason sidecar into the quarantine
// directory.
func (c *Cache) writeEvidence(name string, data []byte, reason string) error {
	qdir := filepath.Join(c.dir, QuarantineDirName)
	if err := os.MkdirAll(qdir, 0o755); err != nil {
		return err
	}
	dst := filepath.Join(qdir, name)
	if err := os.WriteFile(dst, data, 0o644); err != nil {
		return err
	}
	// Best effort: the copy above already preserved the evidence.
	_ = os.WriteFile(dst+".reason", []byte(reason+"\n"), 0o644)
	return nil
}

// CacheEntry names one entry of a cache directory.
type CacheEntry struct {
	Key  string // as Key derives it
	Slug string
}

// ListCache returns the (key, slug) pair of every intact entry in the
// cache directory dir, sorted by key, each key once. Only this package
// knows the on-disk layout; tests and tools that inspect a cache
// directory go through here.
func ListCache(dir string) ([]CacheEntry, error) {
	names, err := segmentNames(dir)
	if err != nil {
		return nil, err
	}
	slugs := map[string]string{}
	for _, name := range names {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		for len(data) > 0 {
			payload, size, err := frame.Decode(data)
			if err != nil {
				break // torn tail or damage: nothing past it is an entry
			}
			data = data[size:]
			if k, slug, _, err := splitEntry(payload); err == nil {
				slugs[hex.EncodeToString(k)] = string(slug)
			}
		}
	}
	out := make([]CacheEntry, 0, len(slugs))
	for k, slug := range slugs {
		out = append(out, CacheEntry{Key: k, Slug: slug})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out, nil
}
