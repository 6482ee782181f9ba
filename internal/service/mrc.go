package service

import (
	"context"
	"fmt"
	"math"
	"net/url"
	"slices"
	"strconv"
	"strings"

	"repro/internal/cache"
	"repro/internal/classify"
	"repro/internal/mem"
	"repro/internal/mrc"
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
// to profile (a named workload, or the uploaded trace), the SHARDS
// sampling parameters, and the cache-geometry ladder to split
// conflict/capacity at. The normalized spec is the memoization payload,
// so every field must deterministically change the result — which is
// also why the tenant is NOT part of the spec: two tenants asking the
// same question share one cached answer.
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

	// Rate is the initial SHARDS sampling rate in (0, 1] (0 = the
	// profiler default, 0.01). MaxSampled caps the tracked-line set,
	// bounding profiler memory (0 = the profiler default; subject to
	// the per-tenant cap).
	Rate       float64 `json:"rate,omitempty"`
	MaxSampled int     `json:"max_sampled,omitempty"`
}

// normalize fills defaults and validates. upload marks the trace-upload
// path; maxSet is the tenant quota's sampled-set cap (0 = profiler
// default only).
func (sp *MRCSpec) normalize(upload bool, maxAccesses uint64, maxSet int) error {
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
	if sp.Rate == 0 {
		sp.Rate = mrc.DefaultRate
	}
	if !(sp.Rate > 0 && sp.Rate <= 1) { // also rejects NaN
		return fmt.Errorf("%w: rate %v outside (0, 1]", ErrBadRequest, sp.Rate)
	}
	if sp.MaxSampled < 0 {
		return fmt.Errorf("%w: max_sampled must be >= 0 (the service never profiles unbounded)", ErrBadRequest)
	}
	if sp.MaxSampled == 0 {
		sp.MaxSampled = mrc.DefaultMaxSampled
	}
	// The sampled set is the profiler's resident memory; the cap is a
	// quota dimension, so exceeding it is 429, not 400.
	setCap := mrc.DefaultMaxSampled
	if maxSet > 0 {
		setCap = maxSet
	}
	if sp.MaxSampled > setCap {
		return fmt.Errorf("%w: max_sampled %d exceeds the per-tenant sampled-set cap %d",
			ErrQuota, sp.MaxSampled, setCap)
	}
	return normalizeSource(sp.Workload, &sp.Seed, &sp.Accesses, upload, maxAccesses)
}

func (sp *MRCSpec) prepare(s *Service) error {
	return sp.normalize(false, s.cfg.MaxSpecAccesses, s.cfg.Tenant.MaxSampledSet)
}

// fromQuery maps an upload's query parameters onto the spec and
// normalizes it for the upload path. sizes_kb is comma-separated
// ("sizes_kb=4,8,32").
func (sp *MRCSpec) fromQuery(q url.Values, maxSet int) error {
	if err := queryInts(q, queryInt{"assoc", &sp.Assoc}, queryInt{"line", &sp.LineSize},
		queryInt{"tag_bits", &sp.TagBits}, queryInt{"max_sampled", &sp.MaxSampled}); err != nil {
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
	if v := q.Get("rate"); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return fmt.Errorf("%w: query rate=%q is not a number", ErrBadRequest, v)
		}
		sp.Rate = f
	}
	if err := queryIndex(q, &sp.Index, &sp.IndexSeed); err != nil {
		return err
	}
	return sp.normalize(true, 0, maxSet)
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

// mrcPoint is one NDJSON record of an MRC response: the SHARDS-sampled
// LRU miss-ratio estimate at a capacity, plus the exact simulated split
// at that geometry.
type mrcPoint struct {
	SizeKB    int     `json:"size_kb"`
	Lines     uint64  `json:"lines"`
	MissRatio float64 `json:"miss_ratio"`
	MCT       mrcMCT  `json:"mct"`
}

// MRCSummary is the trailing NDJSON record: the profiler's sampling
// telemetry, enough for a client to judge estimate quality.
type MRCSummary struct {
	Workload    string  `json:"workload,omitempty"`
	Accesses    uint64  `json:"accesses"`
	Sampled     uint64  `json:"sampled"`
	SampledSet  int     `json:"sampled_set"`
	Evicted     uint64  `json:"evicted"`
	RateInitial float64 `json:"rate_initial"`
	RateFinal   float64 `json:"rate_final"`
	Points      int     `json:"points"`
}

// ladder builds the classifier for the spec's sizes: one rung per size,
// all sharing one oracle stack.
func (spec MRCSpec) ladder() (*classify.Ladder, error) {
	cfgs := make([]cache.Config, len(spec.SizesKB))
	for i, kb := range spec.SizesKB {
		cfgs[i] = cacheConfig(kb, spec.LineSize, spec.Assoc, spec.Index, spec.IndexSeed)
	}
	return classify.NewLadder(cfgs, spec.TagBits)
}

// stream is the MRC kernel as a streamFunc: it plays every memory
// access of src through one SHARDS profiler and one classifier ladder
// (a real cache and MCT per requested size over one shared oracle
// stack), a struct-of-arrays batch at a time: the batch's memory ops
// are compacted once, then fed to the profiler and the ladder (which
// never mutate the shared slices).
// charge, when non-nil, is called once per batch with the newly
// sampled-reference count — the tenant quota hook; its error aborts
// the stream mid-flight. After the source drains cleanly, the points
// stream in ascending size order followed by the summary.
func (spec MRCSpec) stream(ctx context.Context, src trace.BatchSource, emit func(v any) error, charge func(samples uint64) error) (stats, error) {
	var st stats
	prof := mrc.New(mrc.Config{Rate: spec.Rate, MaxSampled: spec.MaxSampled, LineSize: spec.LineSize})
	ladder, err := spec.ladder()
	if err != nil {
		return st, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	batch := trace.NewBatch(trace.DefaultBatchSize)
	addrs := make([]mem.Addr, 0, trace.DefaultBatchSize)
	stores := make([]bool, 0, trace.DefaultBatchSize)
	var lastSampled uint64
	for {
		if cerr := ctx.Err(); cerr != nil {
			return st, cerr
		}
		n := src.ReadBatch(batch, trace.DefaultBatchSize)
		if n == 0 {
			break
		}
		addrs, stores = addrs[:0], stores[:0]
		for i := 0; i < n; i++ {
			if batch.Op[i].IsMem() {
				addrs = append(addrs, batch.Addr[i])
				stores = append(stores, batch.Op[i] == trace.Store)
			}
		}
		prof.ObserveBatch(addrs)
		ladder.AccessBatch(addrs, stores)
		st.Records += uint64(len(addrs))
		if charge != nil {
			cur := prof.SampledRefs()
			if err := charge(cur - lastSampled); err != nil {
				return st, err
			}
			lastSampled = cur
		}
	}
	if err := src.Err(); err != nil {
		return st, err
	}
	ps := prof.Stats()
	st.Samples = ps.Sampled
	for i, kb := range spec.SizesKB {
		run := ladder.Rungs[i]
		lines := uint64(kb) * 1024 / uint64(spec.LineSize)
		compulsory, capacity, conflict := run.Oracle.Counts()
		misses := run.Acc.Misses()
		var mr float64
		if st.Records > 0 {
			mr = float64(misses) / float64(st.Records)
		}
		pt := mrcPoint{
			SizeKB:    kb,
			Lines:     lines,
			MissRatio: prof.MissRatio(lines),
			MCT: mrcMCT{
				Accesses:   st.Records,
				Misses:     misses,
				Conflict:   conflict,
				Capacity:   capacity,
				Compulsory: compulsory,
				MissRatio:  mr,
			},
		}
		if err := emit(struct {
			Point mrcPoint `json:"point"`
		}{pt}); err != nil {
			return st, err
		}
		st.Emitted++
	}
	sum := MRCSummary{
		Workload:    spec.Workload,
		Accesses:    st.Records,
		Sampled:     ps.Sampled,
		SampledSet:  ps.SampledSet,
		Evicted:     ps.Evicted,
		RateInitial: ps.RateInitial,
		RateFinal:   ps.RateFinal,
		Points:      len(spec.SizesKB),
	}
	if err := emit(struct {
		Summary MRCSummary `json:"summary"`
	}{sum}); err != nil {
		return st, err
	}
	st.Emitted++
	return st, nil
}
