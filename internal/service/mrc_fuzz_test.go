package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/runner"
)

// FuzzMRCSpecNormalize decodes arbitrary JSON as an MRC spec, as the
// spec path does, and normalizes it for the spec or upload path. For any
// spec normalize accepts: sizes_kb comes out sorted and duplicate-free;
// normalizing again changes nothing, memo key included; the ignored
// rate and max_sampled never change the outcome or the key, whether
// absent or set to the values older releases journaled; and the spec's
// classifier ladder builds without error or panic.
func FuzzMRCSpecNormalize(f *testing.F) {
	for _, seed := range []string{
		`{"workload":"gcc"}`,
		`{"workload":"swim","accesses":30000,"seed":11,"sizes_kb":[128,8,32,8]}`,
		`{"workload":"li","sizes_kb":[4,8],"assoc":1,"line":32,"tag_bits":8,"index":"skewed","index_seed":3}`,
		`{"workload":"gcc","rate":0.5,"max_sampled":100}`,
		`{"workload":"gcc","sizes_kb":[8192,16384]}`,
		`{"sizes_kb":[64],"assoc":4,"index":"random"}`,
		`{"workload":"gcc","sizes_kb":[0]}`,
		`{"workload":"gcc","rate":2,"max_sampled":-1}`,
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
		bare, tuned := sp, sp
		bare.Rate, bare.MaxSampled = 0, 0
		tuned.Rate, tuned.MaxSampled = 0.01, 8192
		bare.SizesKB, tuned.SizesKB = slices.Clone(sp.SizesKB), slices.Clone(sp.SizesKB)
		err := sp.normalize(upload, maxAccesses)
		for _, v := range []*MRCSpec{&bare, &tuned} {
			verr := v.normalize(upload, maxAccesses)
			if (verr == nil) != (err == nil) {
				t.Fatalf("rate/max_sampled changed the verdict: %v vs %v", err, verr)
			}
			if err == nil && !reflect.DeepEqual(*v, sp) {
				t.Fatalf("rate/max_sampled survived normalize:\n%+v\n%+v", sp, *v)
			}
		}
		if err != nil {
			return
		}
		if !slices.IsSorted(sp.SizesKB) || len(slices.Compact(slices.Clone(sp.SizesKB))) != len(sp.SizesKB) {
			t.Fatalf("sizes_kb %v not sorted and duplicate-free", sp.SizesKB)
		}
		again := sp
		again.SizesKB = slices.Clone(sp.SizesKB)
		if err := again.normalize(upload, maxAccesses); err != nil {
			t.Fatalf("normalized spec %+v rejected on a second pass: %v", sp, err)
		}
		if !reflect.DeepEqual(again, sp) {
			t.Fatalf("normalize not idempotent:\nonce  %+v\ntwice %+v", sp, again)
		}
		k1, err1 := runner.Key(mrcSlug, sp)
		k2, err2 := runner.Key(mrcSlug, again)
		k3, err3 := runner.Key(mrcSlug, tuned)
		if err1 != nil || err2 != nil || err3 != nil || k1 != k2 || k1 != k3 {
			t.Fatalf("memo keys differ: %q (%v), %q (%v), %q (%v)", k1, err1, k2, err2, k3, err3)
		}
		if _, err := sp.ladder(); err != nil {
			t.Fatalf("accepted spec %+v builds no ladder: %v", sp, err)
		}
	})
}

// FuzzForwardedCell feeds arbitrary bytes to the peer cell path: decoded
// strictly as a cluster.CellRequest, as handleClusterCell does, then
// rebuilt by forwardedCell. It must never panic; a cell it refuses — an
// unknown slug, a payload the strict decoder or normalize rejects — is
// ErrBadRequest; and an accepted svc-classify or svc-mrc cell keys the
// memo exactly as its normalized re-encoding does, so the node that
// forwards a cell and the node that computes it agree on its key.
func FuzzForwardedCell(f *testing.F) {
	for _, seed := range []string{
		`{"slug":"svc-mrc","payload":{"workload":"gcc","accesses":20000,"seed":1,"sizes_kb":[4,16],"assoc":2,"line":64,"index":"modulo","rate":0.01,"max_sampled":8192},"key":"k"}`,
		`{"slug":"svc-mrc","payload":{"workload":"swim","sizes_kb":[64,8,8]}}`,
		`{"slug":"svc-mrc","payload":{"workload":"gcc","sizes_kb":[0]}}`,
		`{"slug":"svc-classify","payload":{"workload":"li","size_kb":8,"index":"skew","emit":"summary"}}`,
		`{"slug":"svc-classify","payload":{"workload":"li","size_kb":8,"wrkload":"typo"}}`,
		`{"slug":"fig1","payload":{"MemAccesses":1000,"Instructions":1000,"Seed":1}}`,
		`{"slug":"fig1","payload":{"Quick":true}}`,
		`{"slug":"no-such-cell","payload":{}}`,
		`{"slug":"svc-mrc","payload":[1,2]}`,
		`{"slug":"svc-mrc"}`,
	} {
		f.Add([]byte(seed))
	}
	s := New(Config{NoCache: true})
	f.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Drain(ctx)
	})
	f.Fuzz(func(t *testing.T, body []byte) {
		var creq cluster.CellRequest
		if decodeStrict(bytes.NewReader(body), &creq) != nil {
			return
		}
		c, err := s.forwardedCell(creq)
		if err != nil {
			if !errors.Is(err, ErrBadRequest) {
				t.Fatalf("refused cell %q is not a bad request: %v", creq.Slug, err)
			}
			return
		}
		if endpointBySlug(creq.Slug) == nil {
			return // a sweep experiment cell: its payload is not normalized
		}
		enc, err := json.Marshal(c.payload)
		if err != nil {
			t.Fatal(err)
		}
		again, err := s.forwardedCell(cluster.CellRequest{Slug: creq.Slug, Payload: enc})
		if err != nil {
			t.Fatalf("normalized re-encoding %s refused: %v", enc, err)
		}
		k1, err1 := runner.Key(c.slug, c.payload)
		k2, err2 := runner.Key(again.slug, again.payload)
		if err1 != nil || err2 != nil || k1 != k2 {
			t.Fatalf("memo keys differ: %q (%v) vs %q (%v) for %s", k1, err1, k2, err2, enc)
		}
	})
}
