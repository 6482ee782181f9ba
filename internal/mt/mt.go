// Package mt implements the paper's Section-5.6 "multithreaded
// architectures" application: threads dynamically sharing one data cache
// are particularly prone to conflict misses, the conflicts cannot be
// removed by software within one thread (they come from the other
// thread), and a scheduler can use the Miss Classification Table to
// identify job pairs that conflict badly and avoid co-scheduling them.
//
// The model is a functional shared-cache replay: the threads' access
// streams interleave round-robin in fixed-size bursts (an SMT fetch
// policy's coarse effect), one MCT classifies the shared cache's misses,
// and per-thread attribution separates self-conflicts from cross-thread
// conflicts. CoScheduleMatrix runs every pair and ranks them, which is
// exactly the scheduler feedback loop the paper sketches.
package mt

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/runner"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// ThreadStats is one thread's view of a shared-cache run.
type ThreadStats struct {
	Name     string
	Accesses uint64
	Misses   uint64
	// ConflictMisses are this thread's misses the MCT labeled conflict;
	// CrossConflicts is the subset where the evicted line belonged to
	// another thread (inter-thread conflict, invisible to single-thread
	// tuning).
	ConflictMisses uint64
	CrossConflicts uint64
}

// MissRate returns misses/accesses.
func (t ThreadStats) MissRate() float64 { return stats.Ratio(t.Misses, t.Accesses) }

// Result summarizes a shared-cache run.
type Result struct {
	Threads []ThreadStats
	// SoloMissRates are each thread's miss rates when run alone on the
	// same cache, for the interference comparison.
	SoloMissRates []float64
}

// TotalConflictShare returns the fraction of all misses that were
// conflict-classified.
func (r Result) TotalConflictShare() float64 {
	var conf, miss uint64
	for _, t := range r.Threads {
		conf += t.ConflictMisses
		miss += t.Misses
	}
	return stats.Ratio(conf, miss)
}

// CrossConflictShare returns the fraction of all misses that were
// cross-thread conflicts — the paper's co-scheduling badness signal.
func (r Result) CrossConflictShare() float64 {
	var cross, miss uint64
	for _, t := range r.Threads {
		cross += t.CrossConflicts
		miss += t.Misses
	}
	return stats.Ratio(cross, miss)
}

// Config parameterizes a shared run.
type Config struct {
	// L1 is the shared cache shape.
	L1 cache.Config
	// Burst is how many memory accesses a thread issues before the next
	// thread takes over.
	Burst int
	// AccessesPerThread bounds the replay.
	AccessesPerThread uint64
	// Seed feeds the workloads.
	Seed uint64
}

// DefaultConfig shares the paper's 16KB DM L1 between threads with an
// 8-access interleave.
func DefaultConfig() Config {
	return Config{
		L1:                cache.Config{Name: "L1D", Size: 16 << 10, LineSize: 64, Assoc: 1},
		Burst:             8,
		AccessesPerThread: 200_000,
		Seed:              workload.DefaultSeed,
	}
}

// lineOwner tracks which thread most recently filled each resident line.
type lineOwner map[mem.LineAddr]int

// Share replays the benchmarks' access streams through one shared cache
// and attributes every classified miss.
func Share(benches []*workload.Benchmark, cfg Config) (Result, error) {
	if len(benches) == 0 {
		return Result{}, fmt.Errorf("mt: no benchmarks")
	}
	if cfg.Burst <= 0 {
		cfg.Burst = 8
	}
	l1, err := cache.New(cfg.L1)
	if err != nil {
		return Result{}, err
	}
	mct, err := core.New(core.Config{Sets: cfg.L1.Sets()})
	if err != nil {
		return Result{}, err
	}
	geom := l1.Geometry()

	streams := make([]trace.Stream, len(benches))
	threads := make([]ThreadStats, len(benches))
	for i, b := range benches {
		streams[i] = b.MemStream(cfg.Seed + uint64(i))
		threads[i].Name = b.Name
	}
	owner := lineOwner{}

	live := len(benches)
	var in trace.Instr
	for live > 0 {
		live = 0
		for ti := range streams {
			if threads[ti].Accesses >= cfg.AccessesPerThread {
				continue
			}
			live++
			for n := 0; n < cfg.Burst && threads[ti].Accesses < cfg.AccessesPerThread; n++ {
				if !streams[ti].Next(&in) {
					threads[ti].Accesses = cfg.AccessesPerThread
					break
				}
				threads[ti].Accesses++
				isStore := in.Op == trace.Store
				typ := mem.Load
				if isStore {
					typ = mem.Store
				}
				if l1.Access(in.Addr, typ) {
					continue
				}
				threads[ti].Misses++
				set, tag := geom.Set(in.Addr), geom.Tag(in.Addr)
				class := mct.ClassifyMiss(set, tag)
				ev := l1.Fill(in.Addr, isStore, class == core.Conflict)
				if class == core.Conflict {
					threads[ti].ConflictMisses++
				}
				if ev.Occurred {
					mct.RecordEviction(geom.SetOfLine(ev.Line), geom.TagOfLine(ev.Line))
					if prev, ok := owner[ev.Line]; ok && prev != ti && class == core.Conflict {
						threads[ti].CrossConflicts++
					}
					delete(owner, ev.Line)
				}
				owner[geom.Line(in.Addr)] = ti
			}
		}
	}

	res := Result{Threads: threads, SoloMissRates: make([]float64, len(benches))}
	for i, b := range benches {
		res.SoloMissRates[i] = soloMissRate(b, cfg, uint64(i))
	}
	return res, nil
}

// soloMissRate measures a benchmark's miss rate alone on the same cache,
// using the exact stream (same per-thread seed) it had in the shared run.
func soloMissRate(b *workload.Benchmark, cfg Config, tid uint64) float64 {
	l1 := cache.MustNew(cfg.L1)
	s := b.MemStream(cfg.Seed + tid)
	var in trace.Instr
	for n := uint64(0); n < cfg.AccessesPerThread && s.Next(&in); n++ {
		typ := mem.Load
		if in.Op == trace.Store {
			typ = mem.Store
		}
		if !l1.Access(in.Addr, typ) {
			l1.Fill(in.Addr, in.Op == trace.Store, false)
		}
	}
	return l1.Stats().MissRate()
}

// PairScore is one co-schedule candidate pair with its measured
// cross-thread conflict production. CrossConflictRate is cross-thread
// conflict misses per access — an absolute interference rate, so a pair
// of quiet jobs is not penalized for having few misses overall.
type PairScore struct {
	A, B              string
	CrossConflictRate float64
	CombinedMissRate  float64
}

// CoScheduleMatrix measures every pair from the benchmark list and
// returns the pairs sorted best (least cross-conflict) first — the
// ranking a classification-aware SMT scheduler would maintain.
func CoScheduleMatrix(benches []*workload.Benchmark, cfg Config) ([]PairScore, error) {
	type job struct{ i, j int }
	var jobs []job
	for i := 0; i < len(benches); i++ {
		for j := i + 1; j < len(benches); j++ {
			jobs = append(jobs, job{i, j})
		}
	}
	scores, err := runner.MapN(context.Background(), len(jobs),
		func(i int) string {
			return "cosched/" + benches[jobs[i].i].Name + "+" + benches[jobs[i].j].Name
		},
		func(_ context.Context, ji int) (PairScore, error) {
			jb := jobs[ji]
			r, err := Share([]*workload.Benchmark{benches[jb.i], benches[jb.j]}, cfg)
			if err != nil {
				return PairScore{}, err
			}
			var miss, acc, cross uint64
			for _, t := range r.Threads {
				miss += t.Misses
				acc += t.Accesses
				cross += t.CrossConflicts
			}
			return PairScore{
				A: benches[jb.i].Name, B: benches[jb.j].Name,
				CrossConflictRate: stats.Ratio(cross, acc),
				CombinedMissRate:  stats.Ratio(miss, acc),
			}, nil
		})
	if err != nil {
		return nil, err
	}
	sort.Slice(scores, func(i, j int) bool {
		return scores[i].CrossConflictRate < scores[j].CrossConflictRate
	})
	return scores, nil
}
