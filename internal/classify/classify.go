// Package classify implements the classic ("oracle") miss taxonomy of
// Hill's thesis — compulsory, capacity, conflict — and measures the Miss
// Classification Table's accuracy against it. This is the ground truth
// behind the paper's Figures 1 and 2.
//
// Classic classification is defined by simulation: a reference is
//
//   - compulsory if the line has never been referenced before;
//   - a conflict miss if it misses the real (set-associative) cache but
//     hits a fully-associative LRU cache of the same total capacity; and
//   - a capacity miss if it misses both.
//
// Following the paper, compulsory misses are grouped with capacity misses
// ("we'll group compulsory and capacity misses together and call them
// capacity misses for simplicity").
package classify

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/mem"
)

// Kind is the oracle's verdict for an access.
type Kind uint8

const (
	// Compulsory is a first-ever reference to the line.
	Compulsory Kind = iota
	// Capacity misses both the real cache and the equal-capacity
	// fully-associative LRU cache.
	Capacity
	// Conflict misses the real cache but hits the fully-associative cache.
	Conflict
	// Hit marks an access that hit the real cache: no miss happened, so no
	// miss taxonomy applies. Observe returns it so a caller that tallies
	// verdicts unconditionally cannot silently inflate the Compulsory
	// count (the sentinel Observe used to return for hits).
	Hit

	// numMissKinds counts the miss verdicts (Hit excluded).
	numMissKinds = int(Hit)
)

// IsMiss reports whether the kind classifies a miss (i.e. is not Hit).
func (k Kind) IsMiss() bool { return k != Hit }

// String names the kind.
func (k Kind) String() string {
	switch k {
	case Compulsory:
		return "compulsory"
	case Capacity:
		return "capacity"
	case Conflict:
		return "conflict"
	case Hit:
		return "hit"
	default:
		return "unknown"
	}
}

// Grouped folds a miss verdict into the paper's two-way taxonomy. It is
// only meaningful for miss kinds (IsMiss); Hit has no grouping.
func (k Kind) Grouped() core.Class {
	if k == Conflict {
		return core.Conflict
	}
	return core.Capacity
}

// history is the reference state an oracle needs and a ladder's rungs
// share: the line fold, the set of lines ever touched, and one LRU stack
// cut into a region at every rung's capacity. One reference per access
// answers first touch and fully-associative hit for every rung at once
// (Mattson's inclusion property; see cache.LRUStack), and a histogram of
// the regions referenced gives every rung's fully-associative miss count.
//
// The touched set is a paged bitmap (mem.LineSet) rather than a hash set:
// it is consulted once per memory access for every accuracy experiment,
// and the bitmap answers "first touch?" with bit arithmetic instead of a
// map insert, allocation-free at steady state.
type history struct {
	geom    mem.Geometry
	stack   cache.LRUStack // by value: one indirection fewer per access
	touched mem.LineSet
	// regionRefs[r] counts the references that found their line in stack
	// region r; the last entry counts lines absent from the stack.
	regionRefs []uint64

	// referenceBatch results, sized to the largest batch seen: whether
	// each line was touched before, and the stack region it held.
	lines   []mem.LineAddr
	seen    []bool
	regions []int32
}

// newHistory builds the shared state for rungs with the given
// configurations, which must share a line size and ascend in capacity.
func newHistory(cfgs []cache.Config) (*history, error) {
	if len(cfgs) == 0 {
		return nil, fmt.Errorf("classify: no cache configurations")
	}
	capacities := make([]int, len(cfgs))
	for i, cfg := range cfgs {
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
		if cfg.LineSize != cfgs[0].LineSize {
			return nil, fmt.Errorf("classify: line size %d differs from the first rung's %d", cfg.LineSize, cfgs[0].LineSize)
		}
		capacities[i] = cfg.Size / cfg.LineSize
	}
	geom, err := mem.NewGeometry(cfgs[0].LineSize, cfgs[0].Sets())
	if err != nil {
		return nil, err
	}
	stack, err := cache.NewLRUStack(capacities)
	if err != nil {
		return nil, err
	}
	return &history{geom: geom, stack: *stack, regionRefs: make([]uint64, len(cfgs)+1)}, nil
}

// referenceBatch references a batch of accesses staged per structure —
// line fold, then the touched bitmap, then the stack — leaving the
// results in h.seen and h.regions. Order within each structure is
// preserved, so the results equal referencing one access at a time, as
// Observe does.
func (h *history) referenceBatch(addrs []mem.Addr) {
	n := len(addrs)
	if cap(h.lines) < n {
		h.lines = make([]mem.LineAddr, n)
		h.seen = make([]bool, n)
		h.regions = make([]int32, n)
	}
	h.lines, h.seen, h.regions = h.lines[:n], h.seen[:n], h.regions[:n]
	lines, seen, regions := h.lines, h.seen, h.regions
	for i, addr := range addrs {
		lines[i] = h.geom.Line(addr)
	}
	for i, line := range lines {
		seen[i] = h.touched.TestAndSet(line)
	}
	for i, line := range lines {
		r := h.stack.Reference(line)
		h.regionRefs[r]++
		regions[i] = int32(r)
	}
}

// Oracle classifies misses at one capacity: a rung of a reference
// history. The oracle must observe every access (hits included) to keep
// the fully-associative recency exact.
//
// A one-size oracle (NewOracle) owns its history. The rungs of a Ladder
// share one, so they advance together through Ladder.AccessBatch; calling
// Observe on one of them would advance the others' history too.
type Oracle struct {
	h      *history
	rung   int32 // this oracle's region in h.stack
	counts [numMissKinds]uint64
}

// NewOracle builds an oracle for a cache with the given configuration.
func NewOracle(cfg cache.Config) (*Oracle, error) {
	h, err := newHistory([]cache.Config{cfg})
	if err != nil {
		return nil, err
	}
	return &Oracle{h: h}, nil
}

// MustNewOracle is NewOracle that panics on error.
func MustNewOracle(cfg cache.Config) *Oracle {
	o, err := NewOracle(cfg)
	if err != nil {
		panic(err)
	}
	return o
}

// verdict is the miss kind of an access whose line was (or was not) seen
// before and held the given stack region: it would have hit the
// fully-associative cache at this rung's capacity iff the region is at or
// inside the rung's.
func (o *Oracle) verdict(seen bool, region int32) Kind {
	switch {
	case !seen:
		return Compulsory
	case region <= o.rung:
		return Conflict
	default:
		return Capacity
	}
}

// Observe records one access and returns the oracle's verdict: Hit when
// the real cache hit, else the miss kind the access has under classic
// classification. The caller decides whether the real cache actually
// missed; the oracle itself is cache-independent given the configuration.
// realHit must report whether the access hit the real cache (the miss
// taxonomy is only meaningful for misses, but the touched set and the
// fully-associative state must advance on every access either way).
func (o *Oracle) Observe(addr mem.Addr, realHit bool) Kind {
	h := o.h
	line := h.geom.Line(addr)
	seen := h.touched.TestAndSet(line)
	r := h.stack.Reference(line)
	h.regionRefs[r]++
	region := int32(r)
	if realHit {
		return Hit
	}
	k := o.verdict(seen, region)
	o.counts[k]++
	return k
}

// ObserveBatch records a block of accesses, writing each verdict to kinds
// (same length as addrs; realHit[i] reports whether access i hit the real
// cache). It is Observe staged per structure over the batch: line
// extraction, then the touched bitmap, then the LRU stack, then the
// verdicts — each structure's state walked in one tight loop rather than
// interleaved per record. Ordering within each structure is preserved
// (record i's LRU reference precedes record i+1's), so the verdicts and
// counters are identical to calling Observe in a loop.
func (o *Oracle) ObserveBatch(addrs []mem.Addr, realHit []bool, kinds []Kind) {
	if len(addrs) == 0 {
		return
	}
	o.h.referenceBatch(addrs)
	o.classify(realHit, kinds)
}

// classify turns the history's most recent referenceBatch into verdicts
// for this rung, given which accesses hit its real cache.
func (o *Oracle) classify(realHit []bool, kinds []Kind) {
	seen, regions := o.h.seen, o.h.regions
	n := len(seen)
	realHit = realHit[:n]
	kinds = kinds[:n]
	for i, hit := range realHit {
		if hit {
			kinds[i] = Hit
			continue
		}
		k := o.verdict(seen[i], regions[i])
		o.counts[k]++
		kinds[i] = k
	}
}

// Counts returns how many misses the oracle has labeled compulsory,
// capacity, and conflict.
func (o *Oracle) Counts() (compulsory, capacity, conflict uint64) {
	return o.counts[Compulsory], o.counts[Capacity], o.counts[Conflict]
}

// FAMisses returns how many of the accesses observed so far missed a
// fully-associative LRU cache of this oracle's capacity: those whose line
// was outside the stack regions the capacity covers. Over a ladder's
// shared history every rung counts the same stream.
func (o *Oracle) FAMisses() uint64 {
	var n uint64
	for _, c := range o.h.regionRefs[o.rung+1:] {
		n += c
	}
	return n
}

// Accuracy accumulates the agreement between the MCT's on-the-fly verdicts
// and the oracle's classic verdicts, per the paper's definition: conflict
// accuracy is the fraction of oracle-conflict misses the MCT also labeled
// conflict, and capacity accuracy is the fraction of oracle-capacity
// (including compulsory) misses the MCT labeled capacity.
type Accuracy struct {
	ConflictTotal   uint64 // oracle said conflict
	ConflictAgreed  uint64 // ... and MCT agreed
	CapacityTotal   uint64 // oracle said capacity/compulsory
	CapacityAgreed  uint64 // ... and MCT agreed
	CompulsoryTotal uint64 // subset of CapacityTotal that was compulsory
}

// Record adds one classified miss. A Hit verdict is ignored: hits carry no
// miss classification, and counting them anywhere would corrupt the
// accuracy denominators.
func (a *Accuracy) Record(oracle Kind, mct core.Class) {
	if oracle == Hit {
		return
	}
	if oracle == Conflict {
		a.ConflictTotal++
		if mct == core.Conflict {
			a.ConflictAgreed++
		}
		return
	}
	a.CapacityTotal++
	if oracle == Compulsory {
		a.CompulsoryTotal++
	}
	if mct == core.Capacity {
		a.CapacityAgreed++
	}
}

// Merge adds another accumulator's counts into a.
func (a *Accuracy) Merge(b Accuracy) {
	a.ConflictTotal += b.ConflictTotal
	a.ConflictAgreed += b.ConflictAgreed
	a.CapacityTotal += b.CapacityTotal
	a.CapacityAgreed += b.CapacityAgreed
	a.CompulsoryTotal += b.CompulsoryTotal
}

// Misses returns the total number of recorded misses.
func (a Accuracy) Misses() uint64 { return a.ConflictTotal + a.CapacityTotal }

// ConflictAccuracy returns the fraction of true conflict misses identified.
func (a Accuracy) ConflictAccuracy() float64 {
	if a.ConflictTotal == 0 {
		return 0
	}
	return float64(a.ConflictAgreed) / float64(a.ConflictTotal)
}

// CapacityAccuracy returns the fraction of true capacity misses identified.
func (a Accuracy) CapacityAccuracy() float64 {
	if a.CapacityTotal == 0 {
		return 0
	}
	return float64(a.CapacityAgreed) / float64(a.CapacityTotal)
}

// OverallAccuracy returns the fraction of all misses classified in
// agreement with the oracle — the paper's "correctly identifies 87% of
// misses in the worst case" metric.
func (a Accuracy) OverallAccuracy() float64 {
	if a.Misses() == 0 {
		return 0
	}
	return float64(a.ConflictAgreed+a.CapacityAgreed) / float64(a.Misses())
}

// ConflictShare returns the fraction of misses the oracle labels conflict,
// used to check that workloads exhibit an "interesting mix".
func (a Accuracy) ConflictShare() float64 {
	if a.Misses() == 0 {
		return 0
	}
	return float64(a.ConflictTotal) / float64(a.Misses())
}

// Run drives a full accuracy measurement: it plays every access through a
// classifying cache and the oracle in lockstep and accumulates agreement.
// It is the engine behind Figures 1 and 2.
type Run struct {
	CC     *core.ClassifyingCache
	Oracle *Oracle
	Acc    Accuracy

	// Per-record results of the most recent AccessBatch, all sharing that
	// batch's length: Hits[i] reports whether access i hit the real cache;
	// for misses, Kinds[i] is the oracle verdict and Classes[i] the MCT
	// verdict (both meaningless for hits). Valid until the next AccessBatch.
	Hits    []bool
	Kinds   []Kind
	Classes []core.Class
}

// NewRun builds the lockstep measurement over a cache configuration with an
// MCT storing tagBits bits per entry (0 = full tags). It is the one-rung
// Ladder.
func NewRun(cfg cache.Config, tagBits int) (*Run, error) {
	l, err := NewLadder([]cache.Config{cfg}, tagBits)
	if err != nil {
		return nil, err
	}
	return l.Rungs[0], nil
}

// Access plays one access through both models, updating the accuracy
// accumulator on a miss. It is the scalar reference implementation that
// the batched kernel (AccessBatch) is differentially tested against.
func (r *Run) Access(addr mem.Addr, isStore bool) {
	hit, ev := r.CC.Access(addr, isStore)
	kind := r.Oracle.Observe(addr, hit)
	if !hit {
		r.Acc.Record(kind, ev.Class)
	}
}

// AccessBatch plays a block of accesses through both models — the
// struct-of-arrays fast path. The work is staged per structure (real
// cache + MCT, then oracle, then accuracy) so each stage runs as one
// tight loop over parallel arrays; within each stage records are applied
// in order, making the outcome identical to calling Access in a loop.
// Per-record verdicts are left in r.Hits/r.Kinds/r.Classes for callers
// that report individual accesses. Steady-state allocation-free: the
// result arrays grow to the largest batch and are reused.
func (r *Run) AccessBatch(addrs []mem.Addr, stores []bool) {
	r.accessCache(addrs, stores)
	if len(addrs) == 0 {
		return
	}
	r.Oracle.ObserveBatch(addrs, r.Hits, r.Kinds)
	r.record()
}

// accessCache sizes the result arrays to the batch and plays it through
// the real cache and MCT.
func (r *Run) accessCache(addrs []mem.Addr, stores []bool) {
	n := len(addrs)
	if cap(r.Hits) < n {
		r.Hits = make([]bool, n)
		r.Kinds = make([]Kind, n)
		r.Classes = make([]core.Class, n)
	}
	r.Hits = r.Hits[:n]
	r.Kinds = r.Kinds[:n]
	r.Classes = r.Classes[:n]
	if n > 0 {
		r.CC.AccessBatch(addrs, stores, r.Hits, r.Classes)
	}
}

// record folds the batch's miss verdicts into the accuracy accumulator.
func (r *Run) record() {
	for i, hit := range r.Hits {
		if !hit {
			r.Acc.Record(r.Kinds[i], r.Classes[i])
		}
	}
}

// Ladder is one accuracy measurement at several cache sizes over the same
// access stream. Each rung is a Run with its own real cache, MCT, counts
// and Accuracy; the rungs' oracles share one reference history, so a
// batch costs one line fold, one first-touch test and one LRU-stack
// reference per access however many sizes are measured. Every rung's
// results equal those of a separate Run fed the same stream.
type Ladder struct {
	// Rungs holds one Run per configuration, in the order given. Drive
	// them only through Ladder.AccessBatch: their oracles share state.
	Rungs []*Run

	h *history
}

// NewLadder builds the measurement at each configuration, with an MCT
// storing tagBits bits per entry (0 = full tags). The configurations must
// share a line size and be given in strictly ascending capacity.
func NewLadder(cfgs []cache.Config, tagBits int) (*Ladder, error) {
	h, err := newHistory(cfgs)
	if err != nil {
		return nil, err
	}
	l := &Ladder{Rungs: make([]*Run, len(cfgs)), h: h}
	for i, cfg := range cfgs {
		c, err := cache.New(cfg)
		if err != nil {
			return nil, err
		}
		cc, err := core.Attach(c, tagBits)
		if err != nil {
			return nil, err
		}
		l.Rungs[i] = &Run{CC: cc, Oracle: &Oracle{h: h, rung: int32(i)}}
	}
	return l, nil
}

// AccessBatch plays a block of accesses through every rung: each rung's
// real cache and MCT, then one shared history reference per access, then
// each rung's verdicts and accuracy. Per-record results are left in each
// rung's Hits/Kinds/Classes, as Run.AccessBatch leaves them.
func (l *Ladder) AccessBatch(addrs []mem.Addr, stores []bool) {
	for _, r := range l.Rungs {
		r.accessCache(addrs, stores)
	}
	if len(addrs) == 0 {
		return
	}
	l.h.referenceBatch(addrs)
	for _, r := range l.Rungs {
		r.Oracle.classify(r.Hits, r.Kinds)
		r.record()
	}
}
