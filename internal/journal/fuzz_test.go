package journal

import (
	"bytes"
	"os"
	"testing"

	"repro/internal/frame"
)

// FuzzJournalReplay appends fuzz-derived records across several small
// segments, closes the journal, then damages it in one of the two shapes
// the package's failure model names: the last segment truncated at an
// arbitrary offset (a crash mid-append), or one byte of any segment
// overwritten (bit rot). Replay must never fail, must deliver only
// records that were appended — exactly the intact prefix when the damage
// is a truncation — and must leave the journal so that a second Replay
// is clean and delivers the same records: a crash between recovery and
// compaction must not lose what the first boot already applied.
//
// data is cut into records by length-prefix bytes (each record is the
// next data[0]%32 bytes); segBytes sets the rotation threshold; seg,
// off and b place the damage.
func FuzzJournalReplay(f *testing.F) {
	recs := []byte("\x05hello\x03abc\x00\x07payload\x0arecord-four\x02xy")
	f.Add(recs, uint8(8), false, uint8(0), uint32(29), byte(0))
	f.Add(recs, uint8(20), false, uint8(0), uint32(7), byte(0))
	f.Add(recs, uint8(8), true, uint8(0), uint32(10), byte(0xff))
	f.Add(recs, uint8(30), true, uint8(1), uint32(2), byte(0x40))
	f.Add(recs, uint8(64), true, uint8(0), uint32(30), byte('Z'))
	f.Fuzz(func(t *testing.T, data []byte, segBytes uint8, overwrite bool, seg uint8, off uint32, b byte) {
		var appended [][]byte
		for len(data) > 0 && len(appended) < 64 {
			n := min(int(data[0]%32), len(data)-1)
			appended = append(appended, data[1:1+n])
			data = data[1+n:]
		}
		dir := t.TempDir()
		j, err := Open(dir, Options{MaxSegmentBytes: 8 + int64(segBytes%64)})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range appended {
			if err := j.Append(p); err != nil {
				t.Fatal(err)
			}
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		segs, err := j.segments()
		if err != nil {
			t.Fatal(err)
		}
		if len(segs) == 0 {
			return
		}

		// want is the exact delivery for a truncation; nil for an
		// overwrite, where only the subsequence property is checked.
		var want [][]byte
		if overwrite {
			s := segs[int(seg)%len(segs)]
			raw, err := os.ReadFile(s.path)
			if err != nil {
				t.Fatal(err)
			}
			raw[int(off)%len(raw)] = b
			if err := os.WriteFile(s.path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
		} else {
			// Frames never span segments, so the records that survive are
			// those whose frame ends at or before the cut, measured over
			// the segments laid end to end.
			var before int64
			for _, s := range segs[:len(segs)-1] {
				fi, err := os.Stat(s.path)
				if err != nil {
					t.Fatal(err)
				}
				before += fi.Size()
			}
			last := segs[len(segs)-1].path
			fi, err := os.Stat(last)
			if err != nil {
				t.Fatal(err)
			}
			cut := int64(off) % (fi.Size() + 1)
			if err := os.Truncate(last, cut); err != nil {
				t.Fatal(err)
			}
			want = [][]byte{}
			var end int64
			for _, p := range appended {
				if end += frame.HeaderSize + int64(len(p)); end > before+cut {
					break
				}
				want = append(want, p)
			}
		}

		replay := func() ([][]byte, ReplayStats) {
			j, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer j.Close()
			var got [][]byte
			st, err := j.Replay(func(p []byte) error {
				got = append(got, bytes.Clone(p))
				return nil
			})
			if err != nil {
				t.Fatalf("replay: %v", err)
			}
			if st.Records != len(got) {
				t.Fatalf("stats report %d records, callback saw %d", st.Records, len(got))
			}
			return got, st
		}
		got, _ := replay()
		if want != nil {
			if !equalRecords(got, want) {
				t.Fatalf("truncated journal delivered %q, want the intact prefix %q", got, want)
			}
		} else if !isSubsequence(got, appended) {
			t.Fatalf("damaged journal delivered %q, not an in-order subsequence of %q", got, appended)
		}
		got2, st2 := replay()
		if st2.TornTail || st2.Quarantined != 0 {
			t.Fatalf("second replay not clean: %+v", st2)
		}
		if !equalRecords(got2, got) {
			t.Fatalf("second replay delivered %q, first delivered %q", got2, got)
		}
	})
}

func equalRecords(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// isSubsequence reports whether sub appears in seq in order, each
// element byte-equal (greedy matching is exact for subsequences).
func isSubsequence(sub, seq [][]byte) bool {
	i := 0
	for _, p := range seq {
		if i < len(sub) && bytes.Equal(sub[i], p) {
			i++
		}
	}
	return i == len(sub)
}
