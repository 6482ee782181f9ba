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

// newHistory builds the shared state for the given rungs, which must
// share a line size and not descend in capacity. Rungs of equal capacity
// share one stack region; regions[i] is rung i's.
func newHistory(rungs []Rung) (h *history, regions []int32, err error) {
	if len(rungs) == 0 {
		return nil, nil, fmt.Errorf("classify: no cache configurations")
	}
	first := rungs[0].Cache
	var capacities []int
	regions = make([]int32, len(rungs))
	for i, r := range rungs {
		cfg := r.Cache
		if err := cfg.Validate(); err != nil {
			return nil, nil, err
		}
		if cfg.LineSize != first.LineSize {
			return nil, nil, fmt.Errorf("classify: line size %d differs from the first rung's %d", cfg.LineSize, first.LineSize)
		}
		if c := cfg.Size / cfg.LineSize; len(capacities) == 0 || c != capacities[len(capacities)-1] {
			capacities = append(capacities, c)
		}
		regions[i] = int32(len(capacities) - 1)
	}
	geom, err := mem.NewGeometry(first.LineSize, first.Sets())
	if err != nil {
		return nil, nil, err
	}
	stack, err := cache.NewLRUStack(capacities)
	if err != nil {
		return nil, nil, err
	}
	return &history{geom: geom, stack: *stack, regionRefs: make([]uint64, len(capacities)+1)}, regions, nil
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
	region int32 // this oracle's region in h.stack
	counts [numMissKinds]uint64
}

// NewOracle builds an oracle for a cache with the given configuration.
func NewOracle(cfg cache.Config) (*Oracle, error) {
	h, _, err := newHistory([]Rung{{Cache: cfg}})
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
	case region <= o.region:
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
	for _, c := range o.h.regionRefs[o.region+1:] {
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
// real cache, its MCT and the oracle in lockstep and accumulates
// agreement. It is the engine behind Figures 1 and 2.
type Run struct {
	// Cache is the real cache. The rungs of a Ladder with equal
	// cache.Config share one, so its Stats count their stream once.
	Cache  *cache.Cache
	Oracle *Oracle
	Acc    Accuracy

	// Per-record results of the most recent AccessBatch, all sharing that
	// batch's length: Hits[i] reports whether access i hit the real cache
	// (rungs sharing a Cache share the slice); for misses, Kinds[i] is the
	// oracle verdict and Classes[i] the MCT verdict (both meaningless for
	// hits). Valid until the next AccessBatch.
	Hits    []bool
	Kinds   []Kind
	Classes []core.Class

	l       *Ladder
	tagBits int // stored tag width the verdict reads (0 = full tags)
	depth   int // history depth the verdict reads; 1 reads tagBits
}

// NewRun builds the lockstep measurement over a cache configuration with an
// MCT storing tagBits bits per entry (0 = full tags). It is the one-rung
// Ladder.
func NewRun(cfg cache.Config, tagBits int) (*Run, error) {
	l, err := NewLadder([]Rung{{Cache: cfg, TagBits: tagBits}})
	if err != nil {
		return nil, err
	}
	return l.Rungs[0], nil
}

// AccessBatch plays a block of accesses through the run's ladder: for a
// NewRun, through its real cache, MCT and oracle. Per-record verdicts are
// left in r.Hits/r.Kinds/r.Classes. Steady-state allocation-free: the
// result arrays grow to the largest batch and are reused.
func (r *Run) AccessBatch(addrs []mem.Addr, stores []bool) {
	r.l.AccessBatch(addrs, stores)
}

// verdict is the rung's MCT verdict on a miss that its victims' full-tag
// history scores as core.DeepMCT.Match does.
func (r *Run) verdict(matched, order int) core.Class {
	if r.depth > 1 && order != 0 && order <= r.depth ||
		r.depth == 1 && core.WidthMatches(matched, r.tagBits) {
		return core.Conflict
	}
	return core.Capacity
}

// classify turns the history's most recent referenceBatch into the
// rung's oracle verdicts, given which accesses hit its real cache, and
// folds each miss's pair of verdicts into the accuracy accumulator.
func (r *Run) classify() {
	o := r.Oracle
	seen, regions := o.h.seen, o.h.regions
	n := len(seen)
	hits, kinds, classes := r.Hits[:n], r.Kinds[:n], r.Classes[:n]
	for i, hit := range hits {
		if hit {
			kinds[i] = Hit
			continue
		}
		k := o.verdict(seen[i], regions[i])
		o.counts[k]++
		kinds[i] = k
		r.Acc.Record(k, classes[i])
	}
}

// victims is one real cache and the full tags of the lines it evicted
// from each set, most recent first, shared by the rungs of one
// cache.Config. The cache never reads a line's conflict bit, so its
// evictions do not depend on the MCT, and every rung's MCT is a read-out
// of this history: a k-bit table holds the low k bits of the most recent
// victim's tag, and a depth-d DeepMCT, being move-to-front with
// truncation, the d most recent victims. The fills' conflict bits carry
// the first rung's verdicts, which no result reports.
type victims struct {
	cache   *cache.Cache
	history *core.DeepMCT // full tags, as deep as the deepest rung's MCT
	rungs   []*Run
	hits    []bool // of the most recent batch
}

// access plays a batch through the cache and the history in order (an
// access observes the fills and evictions of every earlier one), leaving
// each rung's MCT verdicts in its Classes. Each access scans its set
// once: cache.Probe finds the hit or the slot a miss fills, and
// cache.FillSlot writes that slot.
func (v *victims) access(addrs []mem.Addr, stores []bool) {
	if cap(v.hits) < len(addrs) {
		v.hits = make([]bool, len(addrs))
	}
	v.hits = v.hits[:len(addrs)]
	hits, stores := v.hits, stores[:len(addrs)]
	c, h, rungs := v.cache, v.history, v.rungs
	geom := c.Geometry()
	for i, addr := range addrs {
		typ := mem.Load
		if stores[i] {
			typ = mem.Store
		}
		slot, hit := c.Probe(addr, typ)
		if hits[i] = hit; hit {
			continue
		}
		set, tag := geom.Set(addr), geom.Tag(addr)
		matched, order := h.Match(set, tag)
		for _, r := range rungs {
			r.Classes[i] = r.verdict(matched, order)
		}
		evict := c.FillSlot(slot, addr, stores[i], rungs[0].Classes[i] == core.Conflict)
		if evict.Occurred {
			h.RecordEviction(geom.SetOfLine(evict.Line), geom.TagOfLine(evict.Line))
		}
	}
	for _, r := range rungs {
		r.Hits = hits
	}
}

// Ladder is one accuracy measurement at several rungs over the same
// access stream. Each rung is a Run with its own MCT verdicts, counts and
// Accuracy. Rungs of equal cache.Config share one real cache and one
// eviction history (victims); the rungs' oracles share one reference
// history, so a batch costs one line fold, one first-touch test and one
// LRU-stack reference per access however many rungs are measured. Every
// rung's results equal those of a separate cache, MCT and oracle fed the
// same stream.
type Ladder struct {
	// Rungs holds one Run per Rung, in the order given. Drive them only
	// through Ladder.AccessBatch: they share state.
	Rungs []*Run

	h       *history
	victims []*victims
}

// Rung is one configuration a Ladder measures: the real cache and its
// MCT, which stores TagBits bits of each evicted tag (0 = full tags) and
// the set's last Depth distinct victims (0 and 1 = the paper's one-entry
// table; at most core.MaxDepth). A deeper table stores full tags: a
// masked one coalesces on masked tags, so it is not a prefix of the
// full-tag history.
type Rung struct {
	Cache   cache.Config
	TagBits int
	Depth   int
}

// NewLadder builds the measurement at each rung. The rungs must share a
// line size and be given in non-descending capacity; rungs of equal
// capacity (say, one cache at several MCT tag widths or depths, or
// several associativities or index schemes of one size) share one oracle
// region, since the fully-associative oracle sees only the capacity.
func NewLadder(rungs []Rung) (*Ladder, error) {
	h, regions, err := newHistory(rungs)
	if err != nil {
		return nil, err
	}
	l := &Ladder{Rungs: make([]*Run, len(rungs)), h: h}
	depths := make(map[*victims]int)
	byConfig := make(map[cache.Config]*victims)
	for i, rung := range rungs {
		if err := (core.Config{Sets: rung.Cache.Sets(), TagBits: rung.TagBits}).Validate(); err != nil {
			return nil, err
		}
		if rung.Depth < 0 || rung.Depth > core.MaxDepth || rung.Depth > 1 && rung.TagBits != 0 {
			return nil, fmt.Errorf("classify: MCT depth must be in [0,%d], and above 1 only with full tags; got depth %d, %d tag bits",
				core.MaxDepth, rung.Depth, rung.TagBits)
		}
		v := byConfig[rung.Cache]
		if v == nil {
			c, err := cache.New(rung.Cache)
			if err != nil {
				return nil, err
			}
			v = &victims{cache: c}
			byConfig[rung.Cache] = v
			l.victims = append(l.victims, v)
		}
		r := &Run{Cache: v.cache, Oracle: &Oracle{h: h, region: regions[i]}, l: l, tagBits: rung.TagBits, depth: max(rung.Depth, 1)}
		v.rungs = append(v.rungs, r)
		depths[v] = max(depths[v], r.depth)
		l.Rungs[i] = r
	}
	for _, v := range l.victims {
		if v.history, err = core.NewDeep(core.Config{Sets: v.cache.Config().Sets()}, depths[v]); err != nil {
			return nil, err
		}
	}
	return l, nil
}

// AccessBatch plays a block of accesses through every rung: each distinct
// cache and its eviction history with every rung's MCT read-out, then one
// shared oracle reference per access, then each rung's oracle verdicts
// and accuracy. Per-record results are left in each rung's
// Hits/Kinds/Classes.
func (l *Ladder) AccessBatch(addrs []mem.Addr, stores []bool) {
	n := len(addrs)
	for _, r := range l.Rungs {
		if cap(r.Kinds) < n {
			r.Kinds = make([]Kind, n)
			r.Classes = make([]core.Class, n)
		}
		r.Kinds, r.Classes = r.Kinds[:n], r.Classes[:n]
	}
	for _, v := range l.victims {
		v.access(addrs, stores)
	}
	if n == 0 {
		return
	}
	l.h.referenceBatch(addrs)
	for _, r := range l.Rungs {
		r.classify()
	}
}
