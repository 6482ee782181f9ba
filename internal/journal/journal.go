// Package journal is an append-only, torn-write-tolerant write-ahead
// log: the durability substrate under the service's job registry
// (results/jobs/). Records are opaque byte payloads framed by package
// frame (length + CRC32C header), written to numbered segment files that
// rotate at a size threshold and compact down to a live-set snapshot.
//
// The failure model, from most to least common:
//
//   - SIGKILL / process crash: the OS page cache survives, so every
//     completed Append is readable on the next boot regardless of the
//     fsync policy. A write torn by the kill itself is at the tail of
//     the last segment; replay detects it by CRC (or short frame) and
//     truncates it away.
//   - Power loss: what survives depends on the durable.Policy —
//     PolicyAlways fsyncs every append; PolicyData fsyncs at rotation,
//     compaction, and close; PolicyOff never does. Whatever was lost,
//     the CRC framing keeps the journal readable up to the last intact
//     record.
//   - Bit rot / partial corruption in the middle of a segment: framing
//     is unrecoverable past the damage, so the segment is quarantined
//     (moved aside with a .reason sidecar, mirroring the cache's
//     convention), its intact frames before the damage are put back in
//     place, and replay continues with the next segment. The records
//     lost are those after the damage in one segment; the ops runbook
//     in README.md covers the diagnosis.
//
// Replay is idempotent by design contract: the caller's records must
// tolerate being applied twice (the service keys them by job ID and
// op), which lets compaction crash between writing the snapshot and
// deleting the old segments without a recovery protocol.
package journal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/durable"
	"repro/internal/frame"
)

// segment file naming: seg-%08d.wal, strictly increasing.
const (
	segPrefix = "seg-"
	segSuffix = ".wal"
)

// QuarantineDirName is the subdirectory corrupt segments are moved
// into, mirroring the memoization cache's quarantine convention.
const QuarantineDirName = "quarantine"

// MaxRecordBytes bounds a single record; a decoded length beyond it is
// corruption (or a torn length word), never a legitimate record.
const MaxRecordBytes = frame.MaxPayload

// ErrClosed reports an Append after Close.
var ErrClosed = errors.New("journal: closed")

// Options configures a Journal.
type Options struct {
	// Sync is the fsync policy (see package durable). Default PolicyData.
	Sync durable.Policy
	// MaxSegmentBytes rotates the active segment beyond this size.
	// Default 4 MiB.
	MaxSegmentBytes int64
	// Logf receives non-fatal diagnostics (quarantines, torn tails).
	// Nil discards.
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.MaxSegmentBytes <= 0 {
		o.MaxSegmentBytes = 4 << 20
	}
	return o
}

// Journal is one directory of WAL segments. Safe for concurrent use;
// appends are serialized internally.
type Journal struct {
	dir  string
	opts Options

	mu     sync.Mutex
	f      *os.File // active segment (nil until first Append)
	seq    uint64   // active segment's sequence number
	size   int64    // active segment's size
	closed bool
}

// ReplayStats summarizes what Replay found.
type ReplayStats struct {
	Records     int  // records delivered to the callback
	Segments    int  // segments read
	TornTail    bool // the last segment ended in a torn record (truncated away)
	Quarantined int  // segments moved to quarantine for mid-file corruption
}

// Open prepares a journal rooted at dir (created if missing). Existing
// segments are left untouched until Replay (which the caller should run
// before the first Append; appends go to a fresh segment either way, so
// an un-replayed journal is never overwritten).
func Open(dir string, opts Options) (*Journal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: creating %s: %w", dir, err)
	}
	j := &Journal{dir: dir, opts: opts.withDefaults()}
	segs, err := j.segments()
	if err != nil {
		return nil, err
	}
	if n := len(segs); n > 0 {
		j.seq = segs[n-1].seq // next rotation appends after the newest
	}
	return j, nil
}

type segref struct {
	seq  uint64
	path string
}

// segments lists the on-disk segments in sequence order.
func (j *Journal) segments() ([]segref, error) {
	ents, err := os.ReadDir(j.dir)
	if err != nil {
		return nil, fmt.Errorf("journal: reading %s: %w", j.dir, err)
	}
	var segs []segref
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		seq, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix), 10, 64)
		if err != nil {
			continue // foreign file; leave it alone
		}
		segs = append(segs, segref{seq: seq, path: filepath.Join(j.dir, name)})
	}
	sort.Slice(segs, func(a, b int) bool { return segs[a].seq < segs[b].seq })
	return segs, nil
}

func (j *Journal) logf(format string, args ...any) {
	if j.opts.Logf != nil {
		j.opts.Logf(format, args...)
	}
}

// Replay streams every intact record, oldest first, into fn. A torn
// record at the tail of the LAST segment is truncated away (the
// SIGKILL-mid-write case); corruption anywhere else quarantines the
// rest of that segment and continues with the next. fn returning an
// error aborts the replay.
func (j *Journal) Replay(fn func(payload []byte) error) (ReplayStats, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	var st ReplayStats
	segs, err := j.segments()
	if err != nil {
		return st, err
	}
	for i, seg := range segs {
		last := i == len(segs)-1
		n, tornAt, corrupt, rerr := replaySegment(seg.path, fn)
		st.Records += n
		st.Segments++
		if rerr != nil {
			return st, rerr // fn aborted
		}
		switch {
		case corrupt == "" && tornAt < 0:
			// Clean segment.
		case corrupt == "" && last:
			// Torn tail of the newest segment: the expected crash shape.
			// Truncate so the next replay is clean.
			st.TornTail = true
			j.logf("journal: %s has a torn tail at offset %d (crash mid-append); truncating", seg.path, tornAt)
			_ = os.Truncate(seg.path, tornAt)
		default:
			// Torn frame in a non-final segment, or an outright CRC/length
			// corruption: framing is lost for the rest of the segment.
			// Quarantine it (records already delivered stay delivered).
			reason := corrupt
			if reason == "" {
				reason = fmt.Sprintf("torn frame at offset %d in a non-final segment", tornAt)
			}
			st.Quarantined++
			j.quarantine(seg.path, reason, tornAt)
		}
	}
	return st, nil
}

// replaySegment decodes one segment. Returns the number of records
// delivered, the offset of a torn/corrupt frame (-1 if none), a
// non-empty corruption reason for CRC/length damage (as opposed to a
// clean truncation), and fn's error if it aborted.
func replaySegment(path string, fn func([]byte) error) (n int, tornAt int64, corrupt string, err error) {
	data, rerr := os.ReadFile(path)
	if rerr != nil {
		return 0, 0, fmt.Sprintf("unreadable: %v", rerr), nil
	}
	off := int64(0)
	for off < int64(len(data)) {
		payload, size, derr := frame.Decode(data[off:])
		switch {
		case errors.Is(derr, frame.ErrShort):
			return n, off, "", nil // short header or payload: torn tail
		case errors.Is(derr, frame.ErrLength):
			return n, off, fmt.Sprintf("frame at offset %d declares more than %d bytes: corrupt length", off, MaxRecordBytes), nil
		case errors.Is(derr, frame.ErrChecksum):
			// A bad CRC at the very end of the file is a torn write; in the
			// middle (bytes follow) it is corruption.
			if off+int64(size) == int64(len(data)) {
				return n, off, "", nil
			}
			return n, off, fmt.Sprintf("CRC mismatch at offset %d", off), nil
		}
		if err := fn(payload); err != nil {
			return n, -1, "", err
		}
		n++
		off += int64(size)
	}
	return n, -1, "", nil
}

// quarantine moves a damaged segment aside with a .reason sidecar, then
// writes its first keep bytes — the intact frames this replay already
// delivered — back in place, so a replay after a crash that preceded
// compaction delivers them again. Caller holds j.mu. Never fatal.
func (j *Journal) quarantine(path, reason string, keep int64) {
	qdir := filepath.Join(j.dir, QuarantineDirName)
	dst := filepath.Join(qdir, filepath.Base(path))
	if err := os.MkdirAll(qdir, 0o755); err != nil {
		j.logf("journal: %s is corrupt (%s) but quarantine dir failed: %v", path, reason, err)
		return
	}
	if err := os.Rename(path, dst); err != nil {
		j.logf("journal: %s is corrupt (%s) but quarantine move failed: %v", path, reason, err)
		return
	}
	_ = os.WriteFile(dst+".reason", []byte(reason+"\n"), 0o644)
	j.logf("journal: quarantined corrupt segment %s: %s", path, reason)
	if keep <= 0 {
		return
	}
	raw, err := os.ReadFile(dst)
	if err == nil {
		err = durable.WriteFileAtomic(path, raw[:keep], 0o644, j.opts.Sync)
	}
	if err != nil {
		j.logf("journal: restoring the intact frames of %s: %v", path, err)
	}
}

// rotateLocked closes the active segment (fsyncing per policy) and
// opens the next one. Caller holds j.mu.
func (j *Journal) rotateLocked() error {
	if j.f != nil {
		if err := durable.SyncFile(j.f, j.opts.Sync); err != nil {
			j.logf("journal: %v", err)
		}
		if err := j.f.Close(); err != nil {
			return fmt.Errorf("journal: closing segment: %w", err)
		}
		j.f = nil
	}
	j.seq++
	path := filepath.Join(j.dir, fmt.Sprintf("%s%08d%s", segPrefix, j.seq, segSuffix))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("journal: creating segment: %w", err)
	}
	j.f = f
	j.size = 0
	// The segment's existence must be durable before any record in it
	// claims to be.
	if err := durable.SyncDir(j.dir, j.opts.Sync); err != nil {
		j.logf("journal: %v", err)
	}
	return nil
}

// Append frames and writes one record, rotating the segment when it
// exceeds the size threshold and fsyncing per policy (PolicyAlways:
// every append; PolicyData/PolicyOff: only at boundaries).
func (j *Journal) Append(payload []byte) error {
	if len(payload) > MaxRecordBytes {
		return fmt.Errorf("journal: record of %d bytes exceeds the %d-byte frame limit", len(payload), MaxRecordBytes)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrClosed
	}
	if j.f == nil || j.size >= j.opts.MaxSegmentBytes {
		if err := j.rotateLocked(); err != nil {
			return err
		}
	}
	return j.appendLocked(payload)
}

// appendLocked writes one framed record to the active segment. Caller
// holds j.mu and guarantees j.f is open.
func (j *Journal) appendLocked(payload []byte) error {
	// One Write call for the whole frame: the kernel appends atomically
	// with respect to other writers of this fd, and a crash mid-write
	// tears at most this one record (which replay then truncates).
	buf := frame.Append(make([]byte, 0, frame.HeaderSize+len(payload)), payload)
	if _, err := j.f.Write(buf); err != nil {
		return fmt.Errorf("journal: appending record: %w", err)
	}
	j.size += int64(len(buf))
	if j.opts.Sync == durable.PolicyAlways {
		if err := durable.SyncFile(j.f, j.opts.Sync); err != nil {
			return err
		}
	}
	return nil
}

// Sync flushes the active segment if the policy asks for durability at
// batch boundaries (PolicyData or PolicyAlways). Callers declare their
// own boundaries with it — the service syncs on job completion, so a
// finished job's outcome survives power loss even under PolicyData.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil || j.closed {
		return nil
	}
	return durable.SyncFile(j.f, j.opts.Sync)
}

// Compact rewrites the journal down to the given live payloads: they
// are appended to a fresh segment (fsynced regardless of policy — the
// snapshot is a batch boundary), and every older segment is deleted.
// A crash between the snapshot and the deletes leaves duplicates,
// which replay's idempotency contract absorbs.
func (j *Journal) Compact(live [][]byte) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrClosed
	}
	old, err := j.segments()
	if err != nil {
		return err
	}
	if err := j.rotateLocked(); err != nil {
		return err
	}
	for _, p := range live {
		if err := j.appendLocked(p); err != nil {
			return err
		}
	}
	// The snapshot must be durable before the history it replaces goes
	// away; PolicyOff keeps its no-fsync contract (it accepts power-loss
	// exposure everywhere).
	p := j.opts.Sync
	if p == durable.PolicyData {
		p = durable.PolicyAlways
	}
	if err := durable.SyncFile(j.f, p); err != nil {
		return err
	}
	if err := durable.SyncDir(j.dir, p); err != nil {
		j.logf("journal: %v", err)
	}
	for _, seg := range old {
		if seg.seq < j.seq {
			if err := os.Remove(seg.path); err != nil && !os.IsNotExist(err) {
				j.logf("journal: compact: removing %s: %v", seg.path, err)
			}
		}
	}
	return nil
}

// Close fsyncs (per policy) and closes the active segment. Further
// Appends fail with ErrClosed.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	if j.f == nil {
		return nil
	}
	if err := durable.SyncFile(j.f, j.opts.Sync); err != nil {
		j.logf("journal: %v", err)
	}
	err := j.f.Close()
	j.f = nil
	if err != nil {
		return fmt.Errorf("journal: closing segment: %w", err)
	}
	return nil
}
