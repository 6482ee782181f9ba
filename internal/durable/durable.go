// Package durable centralizes the fsync policy behind every
// crash-safety-critical write in the repo: the service's job journal
// and the memoization cache's segment appends. Appends and the
// temp-file + rename discipline (journal quarantine restores) protect
// against torn files from a crashed *process* — but not against power
// loss, where a rename or a new file's name can be durable while its
// data blocks are not (or vice versa). Closing that hole requires
// fsyncing the file and, after creating or renaming a file, its parent
// directory, and that costs real latency, so it is a policy the
// operator chooses rather than a hardcoded behavior.
//
// The policies:
//
//   - PolicyOff: no fsync anywhere. A process crash (SIGKILL included:
//     the page cache survives the process) loses nothing written, and
//     framing or temp+rename keeps a write cut by the crash detectable,
//     but power loss may lose or tear the most recent writes. The
//     default for the CLI tools.
//   - PolicyData: fsync at batch boundaries — journal segment rotation,
//     compaction, and close — but not on every record append. Process
//     crashes lose nothing; power loss may lose the records appended
//     since the last boundary, never the file's integrity (CRC framing
//     detects the torn tail). Cache appends sync fully under this
//     policy (each entry is a boundary: its cell reports done once it
//     is stored). The mctd default.
//   - PolicyAlways: fsync file and directory on every durable write,
//     including each journal append. Survives power loss at the cost of
//     one fsync (or two) per record.
package durable

import (
	"fmt"
	"os"
	"path/filepath"
)

// Policy selects how aggressively durable writers fsync.
type Policy int

const (
	// PolicyOff never fsyncs: atomic against process crashes only.
	PolicyOff Policy = iota
	// PolicyData fsyncs at batch boundaries (rotation, compaction,
	// close; whole-file writers sync every write).
	PolicyData
	// PolicyAlways fsyncs file and parent directory on every write.
	PolicyAlways
)

// String returns the flag spelling of the policy.
func (p Policy) String() string {
	switch p {
	case PolicyOff:
		return "off"
	case PolicyData:
		return "data"
	case PolicyAlways:
		return "always"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// ParsePolicy parses the -fsync flag spelling.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "off", "none", "no":
		return PolicyOff, nil
	case "data", "batch", "":
		return PolicyData, nil
	case "always", "full", "yes":
		return PolicyAlways, nil
	default:
		return PolicyOff, fmt.Errorf("durable: unknown fsync policy %q (want off, data, or always)", s)
	}
}

// SyncFile fsyncs an open file. A no-op error-free call under PolicyOff.
func SyncFile(f *os.File, p Policy) error {
	if p == PolicyOff || f == nil {
		return nil
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("durable: fsync %s: %w", f.Name(), err)
	}
	return nil
}

// SyncDir fsyncs a directory, making renames and creates inside it
// durable. Required after the rename half of temp+rename: without it a
// power loss can forget the rename even though the data blocks made it.
// A no-op under PolicyOff. Best effort on filesystems that reject
// directory fsync (the error is returned for callers that care).
func SyncDir(dir string, p Policy) error {
	if p == PolicyOff {
		return nil
	}
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("durable: open dir %s: %w", dir, err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("durable: fsync dir %s: %w", dir, err)
	}
	return nil
}

// WriteFileAtomic writes data to path via temp-file + rename, fsyncing
// per policy (file before rename, directory after). The temp file is
// created in path's directory so the rename never crosses filesystems.
func WriteFileAtomic(path string, data []byte, perm os.FileMode, p Policy) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("durable: temp file for %s: %w", path, err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("durable: writing %s: %w", path, err)
	}
	if err := SyncFile(tmp, p); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("durable: closing %s: %w", path, err)
	}
	if err := os.Chmod(tmp.Name(), perm); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("durable: chmod %s: %w", path, err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("durable: committing %s: %w", path, err)
	}
	return SyncDir(dir, p)
}
