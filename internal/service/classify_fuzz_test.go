package service

import (
	"bytes"
	"testing"

	"repro/internal/runner"
)

// FuzzClassifySpecNormalize decodes arbitrary JSON as a classify spec, as
// the spec path does, and normalizes it for the spec or upload path. For
// any spec normalize accepts: normalizing again changes nothing, memo key
// included, and the spec's cache is valid and at most maxMRCLines lines.
func FuzzClassifySpecNormalize(f *testing.F) {
	for _, seed := range []string{
		`{"workload":"gcc"}`,
		`{"workload":"swim","accesses":30000,"seed":11,"size_kb":8,"emit":"summary"}`,
		`{"workload":"li","size_kb":4,"assoc":1,"line":32,"tag_bits":8,"index":"skewed","index_seed":3}`,
		`{"size_kb":64,"assoc":4,"index":"random","emit":"all"}`,
		`{"workload":"gcc","size_kb":8192}`,
		`{"workload":"gcc","size_kb":1073741824}`,
		`{"workload":"gcc","size_kb":-1}`,
		`{"workload":"gcc","size_kb":3,"line":48}`,
	} {
		f.Add([]byte(seed), false)
		f.Add([]byte(seed), true)
	}
	const maxAccesses = 5_000_000
	f.Fuzz(func(t *testing.T, body []byte, upload bool) {
		var sp ClassifySpec
		if decodeStrict(bytes.NewReader(body), &sp) != nil {
			return
		}
		if sp.normalize(upload, maxAccesses) != nil {
			return
		}
		again := sp
		if err := again.normalize(upload, maxAccesses); err != nil {
			t.Fatalf("normalized spec %+v rejected on a second pass: %v", sp, err)
		}
		if again != sp {
			t.Fatalf("normalize not idempotent:\nonce  %+v\ntwice %+v", sp, again)
		}
		k1, err1 := runner.Key(classifySlug, sp)
		k2, err2 := runner.Key(classifySlug, again)
		if err1 != nil || err2 != nil || k1 != k2 {
			t.Fatalf("memo keys differ: %q (%v) vs %q (%v)", k1, err1, k2, err2)
		}
		cfg := sp.cacheConfig()
		if err := cfg.Validate(); err != nil {
			t.Fatalf("accepted spec %+v has an invalid cache: %v", sp, err)
		}
		if lines := cfg.Size / cfg.LineSize; lines > maxMRCLines {
			t.Fatalf("accepted spec %+v has %d lines, limit %d", sp, lines, maxMRCLines)
		}
	})
}
