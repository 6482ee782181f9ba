package service

import (
	"context"
	"errors"
	"fmt"
	"net/url"
	"strconv"
	"strings"

	"repro/internal/cache"
	"repro/internal/classify"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// ErrBadRequest marks a request the client got wrong (unknown workload,
// invalid cache geometry, malformed body). statusFor maps it to 400.
var ErrBadRequest = errors.New("service: invalid request")

// classifySlug keys spec-path classifications in the memo cache,
// sharing the cache (and, clustered, the hash ring) with MRC profiles
// and sweep cells.
const classifySlug = "svc-classify"

// Emit modes for classify responses.
const (
	// EmitSummary streams only the trailing summary line.
	EmitSummary = "summary"
	// EmitMisses streams one line per miss plus the summary (the default:
	// hits dominate any healthy trace and carry no classification).
	EmitMisses = "misses"
	// EmitAll streams every access.
	EmitAll = "all"
)

// ClassifySpec describes one classification request: which access stream
// to classify (a named synthetic workload, or — on the upload path — the
// request body's binary trace) against which cache geometry. The
// normalized spec doubles as the memoization-cache payload, so every
// field must deterministically change the result.
type ClassifySpec struct {
	// Workload names a synthetic benchmark (workload.Names). Empty on the
	// upload path, where the trace itself is the workload.
	Workload string `json:"workload,omitempty"`
	// Accesses is how many memory accesses of the workload to classify.
	Accesses uint64 `json:"accesses,omitempty"`
	// Seed feeds the workload generator.
	Seed uint64 `json:"seed,omitempty"`

	// SizeKB, Assoc, LineSize describe the simulated cache; TagBits is the
	// MCT's partial-tag width (0 = full tags).
	SizeKB   int `json:"size_kb,omitempty"`
	Assoc    int `json:"assoc,omitempty"`
	LineSize int `json:"line,omitempty"`
	TagBits  int `json:"tag_bits,omitempty"`

	// Index selects the cache's row-index scheme: "modulo" (default),
	// "skewed", or "random". IndexSeed keys the random scheme's per-way
	// hashes (0 = fixed default key).
	Index     string `json:"index,omitempty"`
	IndexSeed uint64 `json:"index_seed,omitempty"`

	// Emit selects the response granularity: summary, misses, or all.
	Emit string `json:"emit,omitempty"`
}

// normalize fills defaults and validates. upload marks the trace-upload
// path, where no workload name is expected and Accesses is ignored (the
// reader's Limits bound the stream instead).
func (sp *ClassifySpec) normalize(upload bool, maxAccesses uint64) error {
	if sp.SizeKB == 0 {
		sp.SizeKB = 32
	}
	if sp.Emit == "" {
		sp.Emit = EmitMisses
	}
	switch sp.Emit {
	case EmitSummary, EmitMisses, EmitAll:
	default:
		return fmt.Errorf("%w: emit %q (valid: %s, %s, %s)", ErrBadRequest, sp.Emit, EmitSummary, EmitMisses, EmitAll)
	}
	if err := normalizeGeometry(&sp.Assoc, &sp.LineSize, sp.TagBits, &sp.Index); err != nil {
		return err
	}
	if err := checkSizeKB(sp.SizeKB, sp.LineSize); err != nil {
		return err
	}
	if err := sp.cacheConfig().Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	return normalizeSource(sp.Workload, &sp.Seed, &sp.Accesses, upload, maxAccesses)
}

func (sp *ClassifySpec) prepare(s *Service) error { return sp.normalize(false, s.cfg.MaxSpecAccesses) }

// fromQuery maps an upload's query parameters onto the spec and
// normalizes it for the upload path.
func (sp *ClassifySpec) fromQuery(q url.Values) error {
	if err := queryInts(q, queryInt{"size_kb", &sp.SizeKB}, queryInt{"assoc", &sp.Assoc},
		queryInt{"line", &sp.LineSize}, queryInt{"tag_bits", &sp.TagBits}); err != nil {
		return err
	}
	sp.Emit = q.Get("emit")
	if err := queryIndex(q, &sp.Index, &sp.IndexSeed); err != nil {
		return err
	}
	return sp.normalize(true, 0)
}

// cacheConfig maps the spec onto the simulator's cache geometry.
func (sp ClassifySpec) cacheConfig() cache.Config {
	return cacheConfig(sp.SizeKB, sp.LineSize, sp.Assoc, sp.Index, sp.IndexSeed)
}

// normalizeGeometry fills the geometry defaults every spec kind shares
// and canonicalizes the index scheme, so equivalent spellings ("",
// "modulo"; "skew", "skewed") share one memoization-cache key.
func normalizeGeometry(assoc, line *int, tagBits int, index *string) error {
	if *assoc == 0 {
		*assoc = 2
	}
	if *line == 0 {
		*line = 64
	}
	scheme, err := cache.ParseIndexScheme(*index)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	*index = scheme.String()
	if tagBits < 0 || tagBits > 64 {
		return fmt.Errorf("%w: tag_bits must be in [0, 64], got %d", ErrBadRequest, tagBits)
	}
	return nil
}

// cacheConfig maps a spec's geometry onto one cache size.
func cacheConfig(sizeKB, line, assoc int, index string, indexSeed uint64) cache.Config {
	// normalize validated index; a bad spelling that skipped normalize
	// falls back to modulo via the parse default.
	scheme, _ := cache.ParseIndexScheme(index)
	return cache.Config{
		Name:      "L1D",
		Size:      sizeKB * 1024,
		LineSize:  line,
		Assoc:     assoc,
		Indexing:  scheme,
		IndexSeed: indexSeed,
	}
}

// normalizeSource validates the access-stream half of a spec. An upload
// names no workload — the body is the trace, bounded by the reader's
// Limits — while the spec path gets the default seed and length, bounded
// by the service limit.
func normalizeSource(name string, seed, accesses *uint64, upload bool, maxAccesses uint64) error {
	if upload {
		if name != "" {
			return fmt.Errorf("%w: workload is meaningless with an uploaded trace", ErrBadRequest)
		}
		return nil
	}
	if *seed == 0 {
		*seed = workload.DefaultSeed
	}
	if *accesses == 0 {
		*accesses = 100_000
	}
	if maxAccesses != 0 && *accesses > maxAccesses {
		return fmt.Errorf("%w: accesses %d exceeds the service limit %d", ErrBadRequest, *accesses, maxAccesses)
	}
	if _, ok := workload.ByName(name); !ok {
		return fmt.Errorf("%w: unknown workload %q (valid: %s)",
			ErrBadRequest, name, strings.Join(workload.Names(), ", "))
	}
	return nil
}

// workloadStream builds the access stream a normalized spec names: the
// workload's trace, memory operations only, truncated to accesses.
func workloadStream(name string, seed, accesses uint64) trace.Stream {
	b, ok := workload.ByName(name)
	if !ok {
		// normalize validated the name; reaching here is a bug.
		panic(fmt.Sprintf("service: workload %q vanished after validation", name))
	}
	return trace.NewLimit(b.MemStream(seed), accesses)
}

// queryInt binds one integer upload query parameter to a spec field.
type queryInt struct {
	name string
	dst  *int
}

func queryInts(q url.Values, fields ...queryInt) error {
	for _, f := range fields {
		if v := q.Get(f.name); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil {
				return fmt.Errorf("%w: query %s=%q is not an integer", ErrBadRequest, f.name, v)
			}
			*f.dst = n
		}
	}
	return nil
}

// queryIndex binds the index scheme and its seed, which every upload
// endpoint takes.
func queryIndex(q url.Values, index *string, seed *uint64) error {
	*index = q.Get("index")
	if v := q.Get("index_seed"); v != "" {
		n, err := strconv.ParseUint(v, 0, 64)
		if err != nil {
			return fmt.Errorf("%w: query index_seed=%q is not an unsigned integer", ErrBadRequest, v)
		}
		*seed = n
	}
	return nil
}

// accessLine is one NDJSON record of a classify response: the access, the
// oracle's classic verdict, and the MCT's on-the-fly verdict (misses
// only; a hit has no miss class).
type accessLine struct {
	I      uint64 `json:"i"`
	Addr   string `json:"addr"`
	Store  bool   `json:"store,omitempty"`
	Hit    bool   `json:"hit"`
	Oracle string `json:"oracle"`
	MCT    string `json:"mct,omitempty"`
}

// ClassifySummary is the trailing NDJSON record: totals plus the MCT's
// agreement with the oracle, the paper's accuracy metric.
type ClassifySummary struct {
	Workload    string  `json:"workload,omitempty"`
	Accesses    uint64  `json:"accesses"`
	Misses      uint64  `json:"misses"`
	Conflict    uint64  `json:"conflict"`
	Capacity    uint64  `json:"capacity"`
	Compulsory  uint64  `json:"compulsory"`
	ConflictAcc float64 `json:"mct_conflict_accuracy"`
	CapacityAcc float64 `json:"mct_capacity_accuracy"`
	OverallAcc  float64 `json:"mct_overall_accuracy"`
}

// stream is the classify kernel as a streamFunc: it plays every memory
// access of src through the classifying cache and the oracle, one batch
// of address and store columns at a time, emitting NDJSON records per
// the spec's emit mode through emit (one call per line, already
// marshaled). Batches bound the resident state: an upload is decoded
// ~256 records at a time straight off the request body, never buffered
// whole, and the steady state allocates nothing per record. The context
// is checked once per batch so an abandoned request stops doing work
// promptly. src.Err() is consulted after the source ends (a
// trace.Reader's decode error, truncation, or limit violation): a failed
// source aborts the run before the summary line, so a truncated or
// over-limit upload never masquerades as a complete classification.
func (spec ClassifySpec) stream(ctx context.Context, src trace.AccessSource, emit func(v any) error) (stats, error) {
	var st stats
	run, err := classify.NewRun(spec.cacheConfig(), spec.TagBits)
	if err != nil {
		return st, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	bc := sim.NewBatchClassifier(run, 0)
	for {
		if cerr := ctx.Err(); cerr != nil {
			return st, cerr
		}
		m := bc.Classify(src)
		if m == 0 {
			break
		}
		if spec.Emit != EmitSummary {
			for i := 0; i < m; i++ {
				hit := run.Hits[i]
				if spec.Emit == EmitMisses && hit {
					continue
				}
				line := accessLine{
					I:      st.Records + uint64(i),
					Addr:   fmt.Sprintf("0x%x", uint64(bc.Addrs[i])),
					Store:  bc.Stores[i],
					Hit:    hit,
					Oracle: run.Kinds[i].String(),
				}
				if !hit {
					line.MCT = run.Classes[i].String()
				}
				if err := emit(line); err != nil {
					return st, err
				}
				st.Emitted++
			}
		}
		st.Records += uint64(m)
	}
	if err := src.Err(); err != nil {
		return st, err
	}
	sum := ClassifySummary{
		Workload:    spec.Workload,
		Accesses:    st.Records,
		Misses:      run.Acc.Misses(),
		Conflict:    run.Acc.ConflictTotal,
		Capacity:    run.Acc.CapacityTotal,
		Compulsory:  run.Acc.CompulsoryTotal,
		ConflictAcc: run.Acc.ConflictAccuracy(),
		CapacityAcc: run.Acc.CapacityAccuracy(),
		OverallAcc:  run.Acc.OverallAccuracy(),
	}
	if err := emit(struct {
		Summary ClassifySummary `json:"summary"`
	}{sum}); err != nil {
		return st, err
	}
	st.Emitted++
	return st, nil
}
