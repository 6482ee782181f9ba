package workload

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/rng"
)

// chainSet provides a kernel with a bounded number of rotating dependence
// chains, modeling the instruction-level parallelism of a real inner loop:
// element i depends on element i-W, so W iterations can overlap in the
// out-of-order window, but a cache miss still stalls its chain. W=1 is a
// fully serial recurrence (pointer chasing); W=4 approximates a software-
// pipelined numeric loop.
type chainSet struct {
	regs [8]uint8
	n    int
	i    int
}

func newChainSet(n int) chainSet {
	if n < 1 {
		n = 1
	}
	if n > 8 {
		n = 8
	}
	return chainSet{n: n}
}

// get returns the chain register the next element depends on.
func (c *chainSet) get() uint8 { return c.regs[c.i] }

// put records the element's result register and advances to the next chain.
func (c *chainSet) put(v uint8) {
	c.regs[c.i] = v
	c.i++
	if c.i == c.n {
		c.i = 0
	}
}

// kernelBase embeds the common identity fields. bodies > 1 gives the
// kernel a large code footprint (inlined copies, cold paths, helper
// functions): each burst runs from a rotating copy of the loop body,
// bodySpacing bytes apart, so the instruction stream exercises an
// instruction cache realistically — small numeric kernels stay resident
// while large irregular codes (a compiler's many passes) thrash.
type kernelBase struct {
	name   string
	code   mem.Addr
	bodies int
	bursts int
}

func (k kernelBase) Name() string { return k.name }

// bodySpacing is the code size attributed to one loop body copy.
const bodySpacing mem.Addr = 512

// Bodies returns how many distinct code copies the kernel executes from
// and the byte spacing between copies.
func (k kernelBase) Bodies() (int, mem.Addr) {
	if k.bodies < 1 {
		return 1, bodySpacing
	}
	return k.bodies, bodySpacing
}

// bodyDwell is how many consecutive bursts run from the same body before
// the rotation advances: real loops iterate before control moves on, so
// the instruction stream has temporal locality at the body scale.
const bodyDwell = 4

// burstCode returns the code base for the next burst, rotating through the
// kernel's bodies with bodyDwell-burst runs, and advances the rotation.
func (k *kernelBase) burstCode() mem.Addr {
	n, sp := k.Bodies()
	b := (k.bursts / bodyDwell) % n
	k.bursts++
	return k.code + mem.Addr(b)*sp
}

// SetBodies configures the kernel's code footprint (chainable at suite
// construction time via the withBodies helper).
func (k *kernelBase) SetBodies(n int) { k.bodies = n }

// ---------------------------------------------------------------------------
// StridedSweep walks a region with a fixed stride, the canonical numeric
// inner loop (DAXPY-style). With a region much larger than the cache it
// produces a steady stream of capacity misses; with a cache-resident region
// it is all hits.
type StridedSweep struct {
	kernelBase
	Region    Region
	Stride    uint64 // bytes between consecutive elements
	PerBurst  int    // elements touched per burst
	Filler    int    // ALU ops per element
	FP        bool   // filler pipeline
	StoreBack bool   // also store to each element (read-modify-write)

	cursor uint64
	chains chainSet
}

// NewStridedSweep constructs the kernel; stride 0 defaults to 8 bytes.
func NewStridedSweep(name string, code mem.Addr, region Region, stride uint64, perBurst, filler int, fp, storeBack bool) *StridedSweep {
	if stride == 0 {
		stride = 8
	}
	if perBurst <= 0 {
		perBurst = 8
	}
	return &StridedSweep{
		kernelBase: kernelBase{name: name, code: code},
		Region:     region, Stride: stride, PerBurst: perBurst,
		Filler: filler, FP: fp, StoreBack: storeBack,
		chains: newChainSet(6),
	}
}

// Burst implements Kernel.
func (k *StridedSweep) Burst(e *Emitter) {
	e.beginBurst(k.burstCode())
	for i := 0; i < k.PerBurst; i++ {
		addr := k.Region.Base + mem.Addr(k.cursor)
		k.cursor += k.Stride
		if k.cursor >= k.Region.Size {
			k.cursor = 0
		}
		// Element i depends on element i-4: a software-pipelined loop.
		v := e.Load(addr, k.chains.get())
		v = e.Filler(k.Filler, k.FP, v)
		if k.StoreBack {
			e.Store(addr, v)
		}
		k.chains.put(v)
		e.LoopBranch(i < k.PerBurst-1, v)
	}
}

// ---------------------------------------------------------------------------
// AliasPingPong alternates between N arrays whose bases map to the same
// cache sets, revisiting each line Reps times — the canonical conflict-miss
// generator. With two arrays it produces conflict near-misses that one more
// way of associativity would absorb; these are exactly the misses the MCT
// identifies and a victim cache converts to hits.
type AliasPingPong struct {
	kernelBase
	Arrays   []Region // bases chosen by the suite to alias in the target L1
	Span     uint64   // lines of each array touched before wrapping
	Reps     int      // times the array group is revisited per index
	PerBurst int      // indices advanced per burst
	Filler   int
	FP       bool
	Stores   bool // make the second array's access a store

	cursor uint64
	chains chainSet
}

// NewAliasPingPong constructs the kernel. Reps >= 2 is required for the
// revisits that turn the first-touch misses into conflict misses.
func NewAliasPingPong(name string, code mem.Addr, arrays []Region, span uint64, reps, perBurst, filler int, fp, stores bool) *AliasPingPong {
	if len(arrays) < 2 {
		panic(fmt.Sprintf("workload: %s: AliasPingPong needs at least 2 arrays", name))
	}
	if reps < 2 {
		reps = 2
	}
	if perBurst <= 0 {
		perBurst = 2
	}
	if span == 0 {
		span = 1
	}
	return &AliasPingPong{
		kernelBase: kernelBase{name: name, code: code},
		Arrays:     arrays, Span: span, Reps: reps, PerBurst: perBurst,
		Filler: filler, FP: fp, Stores: stores,
		chains: newChainSet(4),
	}
}

// Burst implements Kernel.
func (k *AliasPingPong) Burst(e *Emitter) {
	e.beginBurst(k.burstCode())
	for b := 0; b < k.PerBurst; b++ {
		// Visit indices in a scrambled full-cycle order (97 is coprime to
		// every power-of-two-times-three span the suite uses): contended
		// lines are revisited just as before, but consecutively visited
		// indices are far apart, so a next-line prefetch triggered by a
		// conflict miss fetches a line that will not be wanted for a long
		// time — the wasted-prefetch behavior of real conflict misses.
		idx := (k.cursor * 97) % k.Span
		k.cursor++
		// The revisits of one index are serially dependent (they touch the
		// same data); indices overlap through the chain set.
		v := k.chains.get()
		for r := 0; r < k.Reps; r++ {
			for ai, a := range k.Arrays {
				addr := a.LineAddr(idx)
				if k.Stores && ai == 1 && r == k.Reps-1 {
					e.Store(addr, v)
				} else {
					v = e.Load(addr, v)
				}
				if k.Filler > 0 {
					v = e.Filler(k.Filler, k.FP, v)
				}
			}
		}
		k.chains.put(v)
		e.LoopBranch(b < k.PerBurst-1, v)
	}
}

// ---------------------------------------------------------------------------
// PointerChase follows a pseudo-random full-cycle permutation over the
// lines of a region, modeling linked-data traversal (li, vortex). Each hop
// depends on the previous load, serializing the chain, and for regions much
// larger than the cache every hop is a capacity miss with no exploitable
// pattern.
type PointerChase struct {
	kernelBase
	Region Region
	Hops   int // hops per burst
	Filler int
	FP     bool

	idx   uint64
	chain uint8
}

// NewPointerChase constructs the kernel; the region's line count must be a
// power of two so the mixing LCG has full period.
func NewPointerChase(name string, code mem.Addr, region Region, hops, filler int, fp bool) *PointerChase {
	n := region.LineCount()
	if n == 0 || n&(n-1) != 0 {
		panic(fmt.Sprintf("workload: %s: PointerChase region must span a power-of-two line count, got %d", name, n))
	}
	if hops <= 0 {
		hops = 8
	}
	return &PointerChase{
		kernelBase: kernelBase{name: name, code: code},
		Region:     region, Hops: hops, Filler: filler, FP: fp,
	}
}

// Burst implements Kernel.
func (k *PointerChase) Burst(e *Emitter) {
	e.beginBurst(k.burstCode())
	n := k.Region.LineCount()
	v := k.chain
	for h := 0; h < k.Hops; h++ {
		// Full-period LCG over [0, n): multiplier ≡ 1 (mod 4), odd increment.
		k.idx = (k.idx*1664525 + 1013904223) % n
		addr := k.Region.LineAddr(k.idx)
		v = e.Load(addr, v)   // next pointer depends on previous load
		v = e.Load(addr+8, v) // a field in the same node
		if k.Filler > 0 {
			v = e.Filler(k.Filler, k.FP, v)
		}
		e.LoopBranch(h < k.Hops-1, v)
	}
	k.chain = v
}

// ---------------------------------------------------------------------------
// HotZipf references lines of a region under a Zipf-skewed distribution,
// the classic model of interpreter heaps and symbol tables (gcc, li, perl):
// a hot head that stays resident and a long cold tail of capacity misses.
type HotZipf struct {
	kernelBase
	Region    Region
	Theta     float64
	PerBurst  int
	StoreFrac float64
	Filler    int
	FP        bool

	zipf *rng.Zipf // built lazily on first burst
}

// NewHotZipf constructs the kernel with skew theta in (0,1).
func NewHotZipf(name string, code mem.Addr, region Region, theta float64, perBurst int, storeFrac float64, filler int, fp bool) *HotZipf {
	if perBurst <= 0 {
		perBurst = 8
	}
	return &HotZipf{
		kernelBase: kernelBase{name: name, code: code},
		Region:     region, Theta: theta, PerBurst: perBurst,
		StoreFrac: storeFrac, Filler: filler, FP: fp,
	}
}

// Burst implements Kernel.
func (k *HotZipf) Burst(e *Emitter) {
	e.beginBurst(k.burstCode())
	if k.zipf == nil {
		k.zipf = rng.NewZipf(k.Region.LineCount(), k.Theta)
	}
	var v uint8
	for i := 0; i < k.PerBurst; i++ {
		line := k.zipf.Sample(e.Rand())
		addr := k.Region.LineAddr(line) + mem.Addr(e.Rand().Uint64n(8)*8)
		if e.Rand().Bool(k.StoreFrac) {
			e.Store(addr, v)
		} else {
			v = e.Load(addr, v)
		}
		if k.Filler > 0 {
			v = e.Filler(k.Filler, k.FP, v)
		}
		e.DataBranch(0.7, v)
	}
}

// ---------------------------------------------------------------------------
// StackChurn models call-stack traffic: store-heavy pushes and load-heavy
// pops over a handful of lines with near-perfect locality. It supplies the
// high-hit-rate baseline traffic of the integer codes.
type StackChurn struct {
	kernelBase
	Region Region // small; a few KB
	Depth  uint64 // max frames
	Frame  uint64 // bytes per frame

	sp uint64
}

// NewStackChurn constructs the kernel.
func NewStackChurn(name string, code mem.Addr, region Region, depth, frame uint64) *StackChurn {
	if frame == 0 {
		frame = 64
	}
	if depth == 0 {
		depth = 8
	}
	if depth*frame > region.Size {
		depth = region.Size / frame
	}
	return &StackChurn{
		kernelBase: kernelBase{name: name, code: code},
		Region:     region, Depth: depth, Frame: frame,
	}
}

// Burst implements Kernel.
func (k *StackChurn) Burst(e *Emitter) {
	e.beginBurst(k.burstCode())
	push := e.Rand().Bool(0.5)
	if k.sp == 0 {
		push = true
	}
	if k.sp >= k.Depth-1 {
		push = false
	}
	if push {
		k.sp++
	} else {
		k.sp--
	}
	base := k.Region.Base + mem.Addr(k.sp*k.Frame)
	var v uint8
	for w := uint64(0); w < k.Frame; w += 16 {
		if push {
			e.Store(base+mem.Addr(w), v)
		} else {
			v = e.Load(base+mem.Addr(w), v)
		}
	}
	v = e.Filler(3, false, v)
	e.DataBranch(0.6, v)
}

// ---------------------------------------------------------------------------
// SeqScan reads a large region front to back, touching two words in each
// line before moving on, then restarts — the prefetch-friendly streaming
// pattern (swim's field sweeps) with the short intra-line spatial burst
// real 64-byte-line traffic exhibits. Almost every miss is a capacity miss
// the next-line prefetcher covers, and a line diverted to a bypass buffer
// still serves the rest of its burst from there.
type SeqScan struct {
	kernelBase
	Region   Region
	PerBurst int
	Filler   int
	FP       bool
	Stores   bool // write every line instead of reading

	cursor uint64
	chains chainSet
}

// NewSeqScan constructs the kernel.
func NewSeqScan(name string, code mem.Addr, region Region, perBurst, filler int, fp, stores bool) *SeqScan {
	if perBurst <= 0 {
		perBurst = 4
	}
	return &SeqScan{
		kernelBase: kernelBase{name: name, code: code},
		Region:     region, PerBurst: perBurst, Filler: filler, FP: fp, Stores: stores,
		chains: newChainSet(6),
	}
}

// Burst implements Kernel.
func (k *SeqScan) Burst(e *Emitter) {
	e.beginBurst(k.burstCode())
	for i := 0; i < k.PerBurst; i++ {
		addr := k.Region.LineAddr(k.cursor)
		k.cursor++
		v := k.chains.get()
		if k.Stores {
			e.Store(addr, v)
			v = e.Load(addr+16, v)
		} else {
			v = e.Load(addr, v)
			v = e.Load(addr+16, v)
		}
		v = e.Filler(k.Filler, k.FP, v)
		k.chains.put(v)
		e.LoopBranch(i < k.PerBurst-1, v)
	}
}

// ---------------------------------------------------------------------------
// GatherScatter performs uniformly random read-modify-write traffic over a
// mid-sized table — the compress hash-table pattern. Misses are capacity
// misses with no sequential structure, the worst case for a next-line
// prefetcher.
type GatherScatter struct {
	kernelBase
	Region   Region
	PerBurst int
	Filler   int

	chains chainSet
}

// NewGatherScatter constructs the kernel.
func NewGatherScatter(name string, code mem.Addr, region Region, perBurst, filler int) *GatherScatter {
	if perBurst <= 0 {
		perBurst = 4
	}
	return &GatherScatter{
		kernelBase: kernelBase{name: name, code: code},
		Region:     region, PerBurst: perBurst, Filler: filler,
		chains: newChainSet(3),
	}
}

// Burst implements Kernel.
func (k *GatherScatter) Burst(e *Emitter) {
	e.beginBurst(k.burstCode())
	for i := 0; i < k.PerBurst; i++ {
		line := e.Rand().Uint64n(k.Region.LineCount())
		addr := k.Region.LineAddr(line)
		v := e.Load(addr, k.chains.get())
		v = e.Filler(k.Filler, false, v)
		e.Store(addr, v)
		k.chains.put(v)
		e.DataBranch(0.5, v)
	}
}

// ---------------------------------------------------------------------------
// SweepLoop cycles repeatedly over a region sized near twice the target
// cache. Classically these are pure capacity misses (the region exceeds the
// fully-associative capacity too), but with exactly two lines aliasing per
// set the MCT's one-deep eviction memory labels them conflict — the
// systematic misclassification that keeps the paper's capacity accuracy
// below 100%. Benchmarks include it in small doses to reproduce that error
// mode honestly.
type SweepLoop struct {
	kernelBase
	Region   Region
	PerBurst int
	Filler   int
	FP       bool

	cursor uint64
	chains chainSet
}

// NewSweepLoop constructs the kernel.
func NewSweepLoop(name string, code mem.Addr, region Region, perBurst, filler int, fp bool) *SweepLoop {
	if perBurst <= 0 {
		perBurst = 4
	}
	return &SweepLoop{
		kernelBase: kernelBase{name: name, code: code},
		Region:     region, PerBurst: perBurst, Filler: filler, FP: fp,
		chains: newChainSet(6),
	}
}

// Burst implements Kernel.
func (k *SweepLoop) Burst(e *Emitter) {
	e.beginBurst(k.burstCode())
	for i := 0; i < k.PerBurst; i++ {
		addr := k.Region.LineAddr(k.cursor)
		k.cursor++
		v := e.Load(addr, k.chains.get())
		v = e.Filler(k.Filler, k.FP, v)
		k.chains.put(v)
		e.LoopBranch(i < k.PerBurst-1, v)
	}
}

// ---------------------------------------------------------------------------
// HotConflict is the canonical conflict-miss generator of the victim-cache
// literature: a small window of array-pair indices, spaced several lines
// apart, swept repeatedly so the same cache sets ping-pong continuously.
// After the first pass every miss in the window is a conflict near-miss —
// the MCT and the classic oracle agree — and the next-line prefetches such
// misses trigger fetch lines outside the window that are pure waste,
// reissued pass after pass. A victim buffer converts the whole window into
// short-latency hits. The window drifts every Dwell bursts so new sets
// warm up (first-pass misses correctly classify as capacity).
type HotConflict struct {
	kernelBase
	Arrays    []Region
	WindowIdx int    // indices per window
	IdxStride uint64 // lines between adjacent window indices
	Passes    int    // sweeps over the window per burst
	Dwell     int    // bursts before the window advances
	Filler    int
	FP        bool

	chains chainSet
	base   uint64
	bursts int
}

// NewHotConflict constructs the kernel.
func NewHotConflict(name string, code mem.Addr, arrays []Region, windowIdx int, idxStride uint64, passes, dwell, filler int, fp bool) *HotConflict {
	if len(arrays) < 2 {
		panic(fmt.Sprintf("workload: %s: HotConflict needs at least 2 arrays", name))
	}
	if windowIdx <= 0 {
		windowIdx = 8
	}
	if idxStride == 0 {
		idxStride = 5
	}
	if passes <= 0 {
		passes = 2
	}
	if dwell <= 0 {
		dwell = 8
	}
	return &HotConflict{
		kernelBase: kernelBase{name: name, code: code},
		Arrays:     arrays, WindowIdx: windowIdx, IdxStride: idxStride,
		Passes: passes, Dwell: dwell, Filler: filler, FP: fp,
		chains: newChainSet(2),
	}
}

// Burst implements Kernel.
func (k *HotConflict) Burst(e *Emitter) {
	e.beginBurst(k.burstCode())
	for p := 0; p < k.Passes; p++ {
		for w := 0; w < k.WindowIdx; w++ {
			idx := k.base + uint64(w)*k.IdxStride
			v := k.chains.get()
			for _, a := range k.Arrays {
				v = e.Load(a.LineAddr(idx), v)
				if k.Filler > 0 {
					v = e.Filler(k.Filler, k.FP, v)
				}
			}
			k.chains.put(v)
			e.LoopBranch(p < k.Passes-1 || w < k.WindowIdx-1, v)
		}
	}
	k.bursts++
	if k.bursts%k.Dwell == 0 {
		k.base += uint64(k.WindowIdx) * k.IdxStride
		if k.base >= k.Arrays[0].LineCount() {
			k.base = 0
		}
	}
}
