package runner

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/frame"
)

// FuzzMemoSegment stores fuzz-derived entries into one segment, damages
// it in one of four shapes — truncated at an offset (a torn tail), one
// byte flipped (bit rot in a body or a length), arbitrary bytes spliced
// in mid-segment, or the whole file replaced by arbitrary bytes — and
// reads every key back through two fresh caches. Any bytes must index
// cleanly, be skipped or be quarantined: no load may return a value that
// was not stored under its key (or framed under it, intact, in the bytes
// themselves), both caches must answer alike, the segment must be left
// as it was, and the cache must go on storing and hitting.
//
// data is cut into entries: each takes a key number (data[0]%6) and a
// value of the next data[1]%24 bytes. op picks the damage, pos places it,
// b is the flip mask or the spliced bytes' source.
func FuzzMemoSegment(f *testing.F) {
	entries := []byte("\x00\x05hello\x01\x03abc\x02\x00\x00\x07payload\x03\x0arecord-four")
	// The first frame is 56 bytes: header, key, slug and a 12-byte value.
	f.Add(entries, uint8(0), uint32(150), []byte{0})        // torn tail
	f.Add(entries, uint8(1), uint32(50), []byte{0x20})      // flipped body byte
	f.Add(entries, uint8(1), uint32(56), []byte{0x04})      // flipped length of the second frame
	f.Add(entries, uint8(1), uint32(58), []byte{0x80})      // a length flipped past the end
	f.Add(entries, uint8(0), uint32(0), []byte{0})          // empty file
	f.Add(entries, uint8(2), uint32(56), []byte("garbage")) // bytes spliced between frames
	f.Add([]byte{}, uint8(3), uint32(0), []byte("\x30\x00\x00\x00\x01\x02\x03\x04"))
	f.Fuzz(func(t *testing.T, data []byte, op uint8, pos uint32, b []byte) {
		const slug = "fz"
		vals := map[int]map[string]bool{}
		keyOf := func(k int) string { key, _ := Key(slug, k); return key }
		dir := t.TempDir()
		c := Open(dir)
		for n := 0; len(data) >= 2 && n < 32; n++ {
			k, l := int(data[0]%6), min(int(data[1]%24), len(data)-2)
			v := fmt.Sprintf("%x", data[2:2+l])
			data = data[2+l:]
			raw, _ := json.Marshal(v)
			if err := c.StoreRaw(slug, keyOf(k), raw); err != nil {
				t.Fatal(err)
			}
			if vals[k] == nil {
				vals[k] = map[string]bool{}
			}
			vals[k][v] = true
		}
		segs := segmentPaths(t, dir)
		if len(segs) > 1 {
			t.Fatalf("one writer left %d segments", len(segs))
		}
		seg := filepath.Join(dir, segPrefix+"0000000001-000001-00000000"+segSuffix)
		if len(segs) == 1 {
			seg = segs[0]
		}
		raw, _ := os.ReadFile(seg)
		at := 0
		if len(raw) > 0 {
			at = int(pos) % len(raw)
		}
		switch op % 4 {
		case 0:
			raw = raw[:int(pos)%(len(raw)+1)]
		case 1:
			if len(raw) > 0 && len(b) > 0 && b[0] != 0 {
				raw[at] ^= b[0]
			}
		case 2:
			raw = append(raw[:at:at], append(b, raw[at:]...)...)
		case 3:
			raw = b
		}
		writeFile(t, seg, raw)

		// Whatever the bytes hold intact, framed at any offset, was stored.
		for off := range raw {
			if payload, _, err := frame.Decode(raw[off:]); err == nil {
				if key, s, result, err := splitEntry(payload); err == nil && string(s) == slug {
					for k := 0; k < 6; k++ {
						var v string
						if fmt.Sprintf("%x", key) == keyOf(k) && json.Unmarshal(result, &v) == nil {
							if vals[k] == nil {
								vals[k] = map[string]bool{}
							}
							vals[k][v] = true
						}
					}
				}
			}
		}
		var answers [2][6]string
		for i := range answers {
			r := Open(dir)
			for k := 0; k < 6; k++ {
				got, ok := r.LoadRaw(slug, keyOf(k))
				if !ok {
					continue
				}
				var v string
				if err := json.Unmarshal(got, &v); err != nil || !vals[k][v] {
					t.Fatalf("key %d returned %s, never stored under it", k, got)
				}
				answers[i][k] = "hit " + v
			}
		}
		if answers[0] != answers[1] {
			t.Fatalf("two fresh caches disagree: %q vs %q", answers[0], answers[1])
		}
		if now, _ := os.ReadFile(seg); !bytes.Equal(now, raw) {
			t.Fatal("reading modified the segment")
		}
		r := Open(dir)
		if err := r.StoreRaw(slug, keyOf(6), []byte(`"after"`)); err != nil {
			t.Fatal(err)
		}
		if got, ok := Open(dir).LoadRaw(slug, keyOf(6)); !ok || string(got) != `"after"` {
			t.Fatalf("a store after the damage reads back (%s, %v)", got, ok)
		}
	})
}
