package journal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/durable"
	"repro/internal/frame"
)

func replayAll(t *testing.T, j *Journal) ([][]byte, ReplayStats) {
	t.Helper()
	var got [][]byte
	st, err := j.Replay(func(p []byte) error {
		got = append(got, append([]byte(nil), p...))
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return got, st
}

func openT(t *testing.T, dir string, opts Options) *Journal {
	t.Helper()
	j, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	return j
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j := openT(t, dir, Options{Sync: durable.PolicyAlways})
	var want [][]byte
	for i := 0; i < 100; i++ {
		p := []byte(fmt.Sprintf(`{"op":"create","i":%d}`, i))
		want = append(want, p)
		if err := j.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2 := openT(t, dir, Options{})
	got, st := replayAll(t, j2)
	if st.Records != 100 || st.TornTail || st.Quarantined != 0 {
		t.Fatalf("stats = %+v, want 100 clean records", st)
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d = %q, want %q", i, got[i], want[i])
		}
	}
}

// TestTornTailTruncated is the SIGKILL-mid-append model: the last
// record's bytes stop partway through. Replay must deliver everything
// before it, report the torn tail, and truncate so the next replay is
// clean — and a journal reopened after the tear must keep accepting
// appends whose records all survive.
func TestTornTailTruncated(t *testing.T) {
	for _, cut := range []struct {
		name string
		trim func(sz int64) int64
	}{
		{"mid-payload", func(sz int64) int64 { return sz - 3 }},
		{"mid-header", func(sz int64) int64 { return sz - 12 }},
	} {
		t.Run(cut.name, func(t *testing.T) {
			dir := t.TempDir()
			j := openT(t, dir, Options{})
			for i := 0; i < 10; i++ {
				if err := j.Append([]byte(fmt.Sprintf("record-%02d-padding-padding", i))); err != nil {
					t.Fatal(err)
				}
			}
			j.Close()

			segs, _ := openT(t, dir, Options{}).segments()
			if len(segs) != 1 {
				t.Fatalf("%d segments, want 1", len(segs))
			}
			fi, _ := os.Stat(segs[0].path)
			if err := os.Truncate(segs[0].path, cut.trim(fi.Size())); err != nil {
				t.Fatal(err)
			}

			j2 := openT(t, dir, Options{})
			got, st := replayAll(t, j2)
			if len(got) != 9 || !st.TornTail || st.Quarantined != 0 {
				t.Fatalf("after tear: %d records, stats %+v; want 9 records, torn tail", len(got), st)
			}

			// Appends continue after the tear; a further replay sees old
			// records (tail truncated) plus the new one, no tear reported.
			if err := j2.Append([]byte("post-crash")); err != nil {
				t.Fatal(err)
			}
			j2.Close()
			j3 := openT(t, dir, Options{})
			got3, st3 := replayAll(t, j3)
			if len(got3) != 10 || st3.TornTail || st3.Quarantined != 0 {
				t.Fatalf("after recovery append: %d records, stats %+v; want 10 clean", len(got3), st3)
			}
			if string(got3[9]) != "post-crash" {
				t.Fatalf("last record = %q", got3[9])
			}
		})
	}
}

// TestMidFileCorruptionQuarantined: damage in the middle of an old
// segment loses the rest of that segment (framing is gone) but not the
// journal — the segment moves to quarantine with a reason sidecar and
// later segments still replay.
func TestMidFileCorruptionQuarantined(t *testing.T) {
	dir := t.TempDir()
	// Two segments: tiny rotation threshold forces the split.
	j := openT(t, dir, Options{MaxSegmentBytes: 64})
	for i := 0; i < 8; i++ {
		if err := j.Append([]byte(fmt.Sprintf("record-%02d-xxxxxxxxxxxxxxxx", i))); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	segs, _ := openT(t, dir, Options{}).segments()
	if len(segs) < 2 {
		t.Fatalf("%d segments, want >= 2", len(segs))
	}

	// Flip a payload byte in the middle of the FIRST segment.
	raw, _ := os.ReadFile(segs[0].path)
	raw[frame.HeaderSize+2] ^= 0xff
	if err := os.WriteFile(segs[0].path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	var logs []string
	j2 := openT(t, dir, Options{Logf: func(f string, a ...any) { logs = append(logs, fmt.Sprintf(f, a...)) }})
	got, st := replayAll(t, j2)
	if st.Quarantined != 1 {
		t.Fatalf("stats %+v, want 1 quarantined segment", st)
	}
	// Later segments' records survived.
	if len(got) == 0 || !strings.HasPrefix(string(got[len(got)-1]), "record-07") {
		t.Fatalf("later segments lost: got %d records, last %q", len(got), got)
	}
	// The segment moved to quarantine with a .reason sidecar.
	q := filepath.Join(dir, QuarantineDirName, filepath.Base(segs[0].path))
	if _, err := os.Stat(q); err != nil {
		t.Errorf("quarantined segment missing: %v", err)
	}
	reason, err := os.ReadFile(q + ".reason")
	if err != nil || !strings.Contains(string(reason), "CRC mismatch") {
		t.Errorf("reason sidecar = %q, %v", reason, err)
	}
	if len(logs) == 0 {
		t.Error("quarantine should log a diagnostic")
	}
}

// TestCorruptLengthWord: a frame length beyond MaxRecordBytes is
// corruption, not an allocation request.
func TestCorruptLengthWord(t *testing.T) {
	dir := t.TempDir()
	j := openT(t, dir, Options{MaxSegmentBytes: 32})
	for i := 0; i < 4; i++ {
		if err := j.Append([]byte("aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa")); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	segs, _ := openT(t, dir, Options{}).segments()
	raw, _ := os.ReadFile(segs[0].path)
	binary.LittleEndian.PutUint32(raw, 0xffffffff)
	os.WriteFile(segs[0].path, raw, 0o644)

	j2 := openT(t, dir, Options{})
	_, st := replayAll(t, j2)
	if st.Quarantined != 1 {
		t.Fatalf("stats %+v, want the bad-length segment quarantined", st)
	}
}

func TestRotationAndCompaction(t *testing.T) {
	dir := t.TempDir()
	j := openT(t, dir, Options{MaxSegmentBytes: 128})
	for i := 0; i < 50; i++ {
		if err := j.Append([]byte(fmt.Sprintf("rec-%03d-aaaaaaaaaaaaaaaaaaaaaaaa", i))); err != nil {
			t.Fatal(err)
		}
	}
	segs, _ := j.segments()
	if len(segs) < 3 {
		t.Fatalf("rotation produced %d segments, want several", len(segs))
	}

	// Compact to two live records: old segments vanish, replay sees
	// exactly the live set (plus anything appended after).
	live := [][]byte{[]byte("live-1"), []byte("live-2")}
	if err := j.Compact(live); err != nil {
		t.Fatal(err)
	}
	if err := j.Append([]byte("after-compact")); err != nil {
		t.Fatal(err)
	}
	j.Close()

	j2 := openT(t, dir, Options{})
	got, st := replayAll(t, j2)
	if st.Quarantined != 0 || st.TornTail {
		t.Fatalf("stats %+v", st)
	}
	want := []string{"live-1", "live-2", "after-compact"}
	if len(got) != len(want) {
		t.Fatalf("replay after compact: %d records %q, want %v", len(got), got, want)
	}
	for i := range want {
		if string(got[i]) != want[i] {
			t.Errorf("record %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestAppendAfterCloseFails(t *testing.T) {
	j := openT(t, t.TempDir(), Options{})
	if err := j.Append([]byte("x")); err != nil {
		t.Fatal(err)
	}
	j.Close()
	if err := j.Append([]byte("y")); err != ErrClosed {
		t.Fatalf("append after close = %v, want ErrClosed", err)
	}
}

func TestOversizeRecordRejected(t *testing.T) {
	j := openT(t, t.TempDir(), Options{})
	if err := j.Append(make([]byte, MaxRecordBytes+1)); err == nil {
		t.Fatal("oversize record accepted")
	}
}

// TestReplayEmptyDir: a fresh journal replays zero records without
// error — the boot path of a first-ever mctd start.
func TestReplayEmptyDir(t *testing.T) {
	j := openT(t, t.TempDir(), Options{})
	got, st := replayAll(t, j)
	if len(got) != 0 || st.Segments != 0 {
		t.Fatalf("fresh journal: %d records, stats %+v", len(got), st)
	}
}

// TestSequenceContinuesAcrossReopen: a reopened journal appends to a
// NEW segment numbered after the existing ones, never rewriting
// history.
func TestSequenceContinuesAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	j := openT(t, dir, Options{})
	j.Append([]byte("boot-1"))
	j.Close()
	j2 := openT(t, dir, Options{})
	j2.Append([]byte("boot-2"))
	j2.Close()
	segs, _ := openT(t, dir, Options{}).segments()
	if len(segs) != 2 || segs[0].seq >= segs[1].seq {
		t.Fatalf("segments %+v, want two with increasing seq", segs)
	}
	j3 := openT(t, dir, Options{})
	got, _ := replayAll(t, j3)
	if len(got) != 2 || string(got[0]) != "boot-1" || string(got[1]) != "boot-2" {
		t.Fatalf("replay = %q", got)
	}
}
