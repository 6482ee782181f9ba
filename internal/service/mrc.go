package service

import (
	"context"
	"fmt"
	"math"
	"net/url"
	"slices"
	"strconv"
	"strings"

	"repro/internal/classify"
	"repro/internal/sim"
	"repro/internal/trace"
)

// mrcSlug keys spec-path MRC profiles in the memo cache.
const mrcSlug = "svc-mrc"

// maxMRCSizes bounds how many cache sizes one request may profile. Every
// size shares one oracle stack, but each still costs its own real cache
// and MCT per access, so the list remains the request's compute knob.
const maxMRCSizes = 16

// maxMRCLines bounds the capacity in lines (8 MB of 64-byte lines) of
// every cache a spec names, the classify spec's and each MRC size: a
// size's real cache, and the largest size's oracle stack, are allocated
// up front, so the bound caps a request's resident memory.
const maxMRCLines = 1 << 17

// checkSizeKB validates one spec cache size of kb kilobytes over lines of
// line bytes: positive and at most maxMRCLines lines, a byte count that
// overflows int included. normalizeGeometry made line non-zero; a
// negative one fails cache validation afterwards.
func checkSizeKB(kb, line int) error {
	if kb <= 0 {
		return fmt.Errorf("%w: cache sizes must be positive, got %dKB", ErrBadRequest, kb)
	}
	if kb > math.MaxInt/1024 || kb*1024/line > maxMRCLines {
		return fmt.Errorf("%w: size %dKB exceeds the limit of %d lines", ErrBadRequest, kb, maxMRCLines)
	}
	return nil
}

// MRCSpec describes one miss-ratio-curve request: which access stream
// to profile (a named workload, or the uploaded trace) and the
// cache-geometry ladder to report the curve and split conflict/capacity
// at. The normalized spec is the memoization payload, so every field
// must deterministically change the result — which is also why the
// tenant is NOT part of the spec: two tenants asking the same question
// share one cached answer.
type MRCSpec struct {
	// Workload names a synthetic benchmark; empty on the upload path.
	Workload string `json:"workload,omitempty"`
	// Accesses bounds the workload stream (spec path only).
	Accesses uint64 `json:"accesses,omitempty"`
	// Seed feeds the workload generator.
	Seed uint64 `json:"seed,omitempty"`

	// SizesKB is the ascending ladder of cache sizes to report points
	// at (default 4..256 KB doubling), at most maxMRCSizes of them, each
	// at most maxMRCLines lines. Each size gets its own real cache and
	// MCT for the conflict/capacity split; the oracle behind the split
	// is one LRU stack shared by every size.
	SizesKB []int `json:"sizes_kb,omitempty"`
	// Assoc, LineSize, TagBits, Index, IndexSeed describe the per-size
	// cache geometry, exactly as in ClassifySpec.
	Assoc     int    `json:"assoc,omitempty"`
	LineSize  int    `json:"line,omitempty"`
	TagBits   int    `json:"tag_bits,omitempty"`
	Index     string `json:"index,omitempty"`
	IndexSeed uint64 `json:"index_seed,omitempty"`

	// Rate and MaxSampled are accepted and ignored: they tuned a sampled
	// estimate the curve no longer comes from. They stay decodable so
	// older clients and journaled specs still parse; normalize zeroes
	// them.
	Rate       float64 `json:"rate,omitempty"`
	MaxSampled int     `json:"max_sampled,omitempty"`
}

// normalize fills defaults and validates. upload marks the trace-upload
// path.
func (sp *MRCSpec) normalize(upload bool, maxAccesses uint64) error {
	sp.Rate, sp.MaxSampled = 0, 0
	if len(sp.SizesKB) == 0 {
		sp.SizesKB = []int{4, 8, 16, 32, 64, 128, 256}
	}
	if len(sp.SizesKB) > maxMRCSizes {
		return fmt.Errorf("%w: %d sizes requested, limit %d", ErrBadRequest, len(sp.SizesKB), maxMRCSizes)
	}
	slices.Sort(sp.SizesKB)
	sp.SizesKB = slices.Compact(sp.SizesKB)
	if err := normalizeGeometry(&sp.Assoc, &sp.LineSize, sp.TagBits, &sp.Index); err != nil {
		return err
	}
	for _, kb := range sp.SizesKB {
		if err := checkSizeKB(kb, sp.LineSize); err != nil {
			return err
		}
		if err := cacheConfig(kb, sp.LineSize, sp.Assoc, sp.Index, sp.IndexSeed).Validate(); err != nil {
			return fmt.Errorf("%w: size %dKB: %v", ErrBadRequest, kb, err)
		}
	}
	return normalizeSource(sp.Workload, &sp.Seed, &sp.Accesses, upload, maxAccesses)
}

func (sp *MRCSpec) prepare(s *Service) error {
	return sp.normalize(false, s.cfg.MaxSpecAccesses)
}

// fromQuery maps an upload's query parameters onto the spec and
// normalizes it for the upload path. sizes_kb is comma-separated
// ("sizes_kb=4,8,32").
func (sp *MRCSpec) fromQuery(q url.Values) error {
	if err := queryInts(q, queryInt{"assoc", &sp.Assoc}, queryInt{"line", &sp.LineSize},
		queryInt{"tag_bits", &sp.TagBits}); err != nil {
		return err
	}
	if v := q.Get("sizes_kb"); v != "" {
		for _, part := range strings.Split(v, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				return fmt.Errorf("%w: query sizes_kb entry %q is not an integer", ErrBadRequest, part)
			}
			sp.SizesKB = append(sp.SizesKB, n)
		}
	}
	if err := queryIndex(q, &sp.Index, &sp.IndexSeed); err != nil {
		return err
	}
	return sp.normalize(true, 0)
}

// mrcMCT is the per-size conflict/capacity split from the classifier's
// oracle: conflict+capacity+compulsory == misses <= accesses, counted
// on real-cache misses at that geometry.
type mrcMCT struct {
	Accesses   uint64  `json:"accesses"`
	Misses     uint64  `json:"misses"`
	Conflict   uint64  `json:"conflict"`
	Capacity   uint64  `json:"capacity"`
	Compulsory uint64  `json:"compulsory"`
	MissRatio  float64 `json:"miss_ratio"`
}

// mrcPoint is one NDJSON record of an MRC response: the exact
// fully-associative LRU miss ratio at a capacity, plus the simulated
// split at that geometry.
type mrcPoint struct {
	SizeKB    int     `json:"size_kb"`
	Lines     uint64  `json:"lines"`
	MissRatio float64 `json:"miss_ratio"`
	MCT       mrcMCT  `json:"mct"`
}

// MRCSummary is the trailing NDJSON record: what was profiled.
type MRCSummary struct {
	Workload string `json:"workload,omitempty"`
	Accesses uint64 `json:"accesses"`
	Points   int    `json:"points"`
}

// ladder builds the classifier for the spec's sizes: one rung per size,
// all sharing one oracle stack.
func (spec MRCSpec) ladder() (*classify.Ladder, error) {
	rungs := make([]classify.Rung, len(spec.SizesKB))
	for i, kb := range spec.SizesKB {
		rungs[i] = classify.Rung{Cache: cacheConfig(kb, spec.LineSize, spec.Assoc, spec.Index, spec.IndexSeed), TagBits: spec.TagBits}
	}
	return classify.NewLadder(rungs)
}

// stream is the MRC kernel as a streamFunc: it plays every memory
// access of src through one classifier ladder (a real cache and MCT per
// requested size over one shared oracle stack), one batch of access
// columns at a time through sim.BatchClassifier. Each point's miss ratio
// is its rung's fully-associative miss count over the accesses, exact by
// Mattson inclusion. After the source drains cleanly, the points stream
// in ascending size order followed by the summary.
func (spec MRCSpec) stream(ctx context.Context, src trace.AccessSource, emit func(v any) error) (stats, error) {
	var st stats
	ladder, err := spec.ladder()
	if err != nil {
		return st, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	bc := sim.NewBatchClassifier(ladder, 0)
	for {
		if cerr := ctx.Err(); cerr != nil {
			return st, cerr
		}
		m := bc.Classify(src)
		if m == 0 {
			break
		}
		st.Records += uint64(m)
	}
	if err := src.Err(); err != nil {
		return st, err
	}
	ratio := func(n uint64) float64 {
		if st.Records == 0 {
			return 0
		}
		return float64(n) / float64(st.Records)
	}
	for i, kb := range spec.SizesKB {
		run := ladder.Rungs[i]
		compulsory, capacity, conflict := run.Oracle.Counts()
		misses := run.Acc.Misses()
		pt := mrcPoint{
			SizeKB:    kb,
			Lines:     uint64(kb) * 1024 / uint64(spec.LineSize),
			MissRatio: ratio(run.Oracle.FAMisses()),
			MCT: mrcMCT{
				Accesses:   st.Records,
				Misses:     misses,
				Conflict:   conflict,
				Capacity:   capacity,
				Compulsory: compulsory,
				MissRatio:  ratio(misses),
			},
		}
		if err := emit(struct {
			Point mrcPoint `json:"point"`
		}{pt}); err != nil {
			return st, err
		}
		st.Emitted++
	}
	sum := MRCSummary{Workload: spec.Workload, Accesses: st.Records, Points: len(spec.SizesKB)}
	if err := emit(struct {
		Summary MRCSummary `json:"summary"`
	}{sum}); err != nil {
		return st, err
	}
	st.Emitted++
	return st, nil
}
