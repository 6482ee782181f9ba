package service

import (
	"bytes"
	"reflect"
	"slices"
	"testing"

	"repro/internal/mrc"
	"repro/internal/runner"
)

// FuzzMRCSpecNormalize decodes arbitrary JSON as an MRC spec, as the
// spec path does, and normalizes it for the spec or upload path. For any
// spec normalize accepts: sizes_kb comes out sorted and duplicate-free;
// normalizing again changes nothing, memo key included; and the spec's
// profiler and classifier ladder build without error or panic.
func FuzzMRCSpecNormalize(f *testing.F) {
	for _, seed := range []string{
		`{"workload":"gcc"}`,
		`{"workload":"swim","accesses":30000,"seed":11,"sizes_kb":[128,8,32,8]}`,
		`{"workload":"li","sizes_kb":[4,8],"assoc":1,"line":32,"tag_bits":8,"index":"skewed","index_seed":3}`,
		`{"workload":"gcc","rate":0.5,"max_sampled":100}`,
		`{"workload":"gcc","sizes_kb":[8192,16384]}`,
		`{"sizes_kb":[64],"assoc":4,"index":"random"}`,
		`{"workload":"gcc","sizes_kb":[0]}`,
		`{"workload":"gcc","rate":2}`,
	} {
		f.Add([]byte(seed), false)
		f.Add([]byte(seed), true)
	}
	const maxAccesses = 5_000_000
	f.Fuzz(func(t *testing.T, body []byte, upload bool) {
		var sp MRCSpec
		if decodeStrict(bytes.NewReader(body), &sp) != nil {
			return
		}
		if sp.normalize(upload, maxAccesses, 0) != nil {
			return
		}
		if !slices.IsSorted(sp.SizesKB) || len(slices.Compact(slices.Clone(sp.SizesKB))) != len(sp.SizesKB) {
			t.Fatalf("sizes_kb %v not sorted and duplicate-free", sp.SizesKB)
		}
		again := sp
		again.SizesKB = slices.Clone(sp.SizesKB)
		if err := again.normalize(upload, maxAccesses, 0); err != nil {
			t.Fatalf("normalized spec %+v rejected on a second pass: %v", sp, err)
		}
		if !reflect.DeepEqual(again, sp) {
			t.Fatalf("normalize not idempotent:\nonce  %+v\ntwice %+v", sp, again)
		}
		k1, err1 := runner.Key(mrcSlug, sp)
		k2, err2 := runner.Key(mrcSlug, again)
		if err1 != nil || err2 != nil || k1 != k2 {
			t.Fatalf("memo keys differ: %q (%v) vs %q (%v)", k1, err1, k2, err2)
		}
		mrc.New(mrc.Config{Rate: sp.Rate, MaxSampled: sp.MaxSampled, LineSize: sp.LineSize})
		if _, err := sp.ladder(); err != nil {
			t.Fatalf("accepted spec %+v builds no ladder: %v", sp, err)
		}
	})
}
