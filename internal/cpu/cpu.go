// Package cpu is the trace-driven out-of-order processor timing model that
// stands in for SMTSIM. It models the paper's Section-4 machine: a 7-stage
// pipeline, 8-instruction fetch and issue, two 32-entry instruction queues
// (integer and floating point), four load/store units, and a non-blocking
// memory interface supplied by internal/hier.
//
// The model is a ROB machine with a wakeup/select issue stage:
// instructions dispatch in order into a reorder buffer and their queue,
// issue out of order when their source operands are ready and a
// functional unit is free, and retire in order. Dependencies are resolved
// once, at dispatch: an entry counts the producers that have not issued
// yet, and each producer keeps a mask of the entries waiting on it. When a
// producer issues its completion cycle is known, so it wakes those entries
// with that cycle; an entry whose last producer has issued is armed with
// the cycle its operands arrive and becomes an issue candidate then.
// Nothing polls a waiting instruction.
//
// The core runs one or more hardware threads, following SMTSIM's
// simultaneous-multithreading organization so Section 5.6's multithreading
// discussion gets measured numbers. A single-threaded CPU is the
// one-thread case; with n threads:
//
//   - each thread has its own ROB partition of ROBSize/n entries, queue
//     shares of IntQSize/n and FPQSize/n, a retire width of IssueWidth/n,
//     its own register alias table and front end; the branch-counter table
//     is shared (PCs differ per thread's code layout);
//   - fetch is round-robin: each cycle one thread fetches up to the full
//     fetch width, skipping threads that cannot fetch (SMTSIM's RR.8
//     baseline policy);
//   - issue is simultaneous and shared: up to IssueWidth instructions per
//     cycle, taken in rounds of one per thread, oldest-first within a
//     thread, sharing the ALU/LSU pools;
//   - all threads share one memory hierarchy, so they fight over cache
//     sets, MSHRs, buffer ports, and buses — the conflict-generation
//     mechanism the paper's multithreading section is about.
//
// Branches are predicted with a 2-bit-counter table at fetch; a
// misprediction stops fetch until the branch issues plus a pipeline
// refill penalty, approximating SMTSIM's wrong-path fetch cost without
// executing wrong-path instructions (documented substitution; the trace
// contains no wrong-path memory references, which slightly understates
// cache pressure but applies equally to every configuration compared).
package cpu

import (
	"fmt"
	"math/bits"

	"repro/internal/hier"
	"repro/internal/mem"
	"repro/internal/trace"
)

// Config sets the pipeline parameters. DefaultConfig reproduces Sec 4.
type Config struct {
	FetchWidth  int
	IssueWidth  int
	IntQSize    int
	FPQSize     int
	ROBSize     int
	LSUs        int
	IntALUs     int
	FPALUs      int
	PredictorSz int // 2-bit counter entries (power of two)
	// MispredictPenalty is the fetch-refill cost after a mispredicted
	// branch resolves (7-stage pipeline front end).
	MispredictPenalty int
	// MaxCycles bounds a run defensively: a run still going after cycle
	// MaxCycles stops there and reports MaxCycles cycles. 0 means no bound.
	MaxCycles uint64
}

// DefaultConfig returns the paper's processor.
func DefaultConfig() Config {
	return Config{
		FetchWidth:        8,
		IssueWidth:        8,
		IntQSize:          32,
		FPQSize:           32,
		ROBSize:           64,
		LSUs:              4,
		IntALUs:           8,
		FPALUs:            4,
		PredictorSz:       4096,
		MispredictPenalty: 6,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.FetchWidth <= 0 || c.IssueWidth <= 0 || c.ROBSize <= 0 {
		return fmt.Errorf("cpu: widths and ROB size must be positive")
	}
	if c.IntQSize <= 0 || c.FPQSize <= 0 || c.LSUs <= 0 || c.IntALUs <= 0 || c.FPALUs <= 0 {
		return fmt.Errorf("cpu: queue sizes and unit counts must be positive")
	}
	if c.PredictorSz <= 0 || c.PredictorSz&(c.PredictorSz-1) != 0 {
		return fmt.Errorf("cpu: predictor size must be a positive power of two, got %d", c.PredictorSz)
	}
	return nil
}

// Metrics summarizes a run.
type Metrics struct {
	Instructions uint64
	Cycles       uint64
	Loads        uint64
	Stores       uint64
	Branches     uint64
	Mispredicts  uint64
	// LoadStallRetries counts load issue attempts rejected because the
	// MSHRs were full (the paper's "further misses stall the pipeline").
	LoadStallRetries uint64
}

// IPC returns instructions per cycle.
func (m Metrics) IPC() float64 {
	if m.Cycles == 0 {
		return 0
	}
	return float64(m.Instructions) / float64(m.Cycles)
}

// MispredictRate returns mispredicted branches over branches.
func (m Metrics) MispredictRate() float64 {
	if m.Branches == 0 {
		return 0
	}
	return float64(m.Mispredicts) / float64(m.Branches)
}

// robEntry is one in-flight instruction. Its source operands are renamed
// at dispatch: waits counts the distinct producers that had not issued
// then and have not issued since, and readyAt is the latest completion
// cycle among those that have. The operands are available at readyAt once
// waits is zero.
type robEntry struct {
	in      trace.Instr
	issued  bool
	waits   uint8
	done    uint64
	readyAt uint64
}

// wheelSlots is the timing wheel's span in cycles (a power of two): an
// entry whose operands arrive fewer than wheelSlots cycles after it is
// armed waits in the wheel, a later one in the overflow heap. L1 hits,
// buffer hits and uncontended L2 and memory fills of the default
// hierarchy all arrive well inside it.
const wheelSlots = 256

// armedEntry is a ROB slot whose producers have all issued, waiting for
// cycle at, when its last operand arrives.
type armedEntry struct {
	at   uint64
	slot int
}

// wakeHeap is a binary min-heap of armed entries keyed by arrival cycle,
// the wheel's overflow. Latencies come from the hierarchy's configuration
// and bus queueing has no bound, so no fixed wheel span covers every
// arrival. Each slot is armed at most once while it is occupied and
// leaves the heap before it can issue, so the ROB partition bounds the
// heap and a heap preallocated to that capacity never grows.
type wakeHeap []armedEntry

func (h *wakeHeap) push(a armedEntry) {
	q := append(*h, a)
	for i := len(q) - 1; i > 0; {
		parent := (i - 1) / 2
		if q[parent].at <= q[i].at {
			break
		}
		q[parent], q[i] = q[i], q[parent]
		i = parent
	}
	*h = q
}

func (h *wakeHeap) pop() armedEntry {
	q := *h
	top := q[0]
	last := len(q) - 1
	q[0] = q[last]
	q = q[:last]
	for i := 0; ; {
		least, l, r := i, 2*i+1, 2*i+2
		if l < last && q[l].at < q[least].at {
			least = l
		}
		if r < last && q[r].at < q[least].at {
			least = r
		}
		if least == i {
			break
		}
		q[i], q[least] = q[least], q[i]
		i = least
	}
	*h = q
	return top
}

// thread is one hardware context: its ROB partition, queue occupancy,
// rename table, front end and wakeup/select state. ROB slots and mask
// bits are indices into the thread's own partition.
type thread struct {
	rob        []robEntry
	head, tail int // ring; count tracks occupancy
	count      int
	queued     [2]int // unissued occupancy of the integer and FP queues

	// The wakeup/select scheduler. Masks are bitsets over ROB slots,
	// words = len(ready) uint64s each. cons holds one mask per producer
	// slot (slot p's at cons[p*words:]): the unissued entries whose operands
	// wait on p's result. ready holds the entries whose operands are
	// available, the only ones the issue stage visits. An entry whose
	// producers have all issued is armed (see arm) for the cycle its
	// operands arrive. wheel is a timing wheel of wheelSlots masks, the
	// entries arriving at cycle a in the mask at wheel[(a%wheelSlots)*words:],
	// and bit a%wheelSlots of occupied is set while that mask is not
	// empty; arrivals past the wheel's span wait in late.
	cons     []uint64
	ready    []uint64
	wheel    []uint64
	occupied [wheelSlots / 64]uint64
	late     wakeHeap
	walk     readyWalk

	// rat is the register alias table: the ROB slot of each architectural
	// register's latest in-flight producer, -1 once that producer retires.
	rat [trace.NumRegs]int

	stream      trace.Stream
	target      uint64 // retire target; 0 runs to stream end
	fetchResume uint64
	blockedOn   int // ROB slot of unresolved mispredicted branch, -1 none

	// Instruction-fetch line tracking: fetchLine is 1 + the line of the
	// last I-fetch (0 = none yet); pending marks an instruction stalled on
	// an instruction-cache miss, held decoded in the free tail slot.
	fetchLine mem.LineAddr
	pending   bool

	// metrics accumulates the thread's counters, except Loads, Stores
	// and Branches: retire counts every op class in retiredOps, an
	// indexed increment rather than a branch on the class, and the run
	// reads those three from it at the end.
	metrics    Metrics
	retiredOps [trace.NumOpClasses]uint64
}

// CPU is the processor state for one run: the hardware threads and the
// resources they share.
type CPU struct {
	cfg  Config
	h    *hier.Hierarchy
	pred []uint8

	threads []thread
	// Each thread's share of the retire width and of the integer and FP
	// queues, and the functional units of each pool.
	retireWidth int
	queueCap    [2]int
	poolSize    units
	fetchRR     int // next thread offered the fetch stage

	// Thread masks, bit ti for thread ti: short holds the threads that
	// have not met their retire target (all of them when there is none),
	// ended those whose stream has ended. Only threads in short and not
	// in ended are offered the fetch stage.
	short uint
	ended uint
}

// New builds a single-threaded CPU over a memory hierarchy.
func New(cfg Config, h *hier.Hierarchy) (*CPU, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return newCore(cfg, h, 1), nil
}

// MustNew is New that panics on error.
func MustNew(cfg Config, h *hier.Hierarchy) *CPU {
	c, err := New(cfg, h)
	if err != nil {
		panic(err)
	}
	return c
}

// NewSMT builds a core of nthreads hardware threads over a shared
// hierarchy; run it with RunThreads. Each thread gets a ROB partition of
// cfg.ROBSize/nthreads and the instruction queues are split the same way,
// mirroring a static partition of the paper's two 32-entry queues.
func NewSMT(cfg Config, h *hier.Hierarchy, nthreads int) (*CPU, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if nthreads < 1 || nthreads > 8 {
		return nil, fmt.Errorf("cpu: SMT supports 1-8 threads, got %d", nthreads)
	}
	if cfg.ROBSize/nthreads < 4 {
		return nil, fmt.Errorf("cpu: ROB of %d too small for %d threads", cfg.ROBSize, nthreads)
	}
	return newCore(cfg, h, nthreads), nil
}

// MustNewSMT is NewSMT that panics on error.
func MustNewSMT(cfg Config, h *hier.Hierarchy, nthreads int) *CPU {
	c, err := NewSMT(cfg, h, nthreads)
	if err != nil {
		panic(err)
	}
	return c
}

// newCore allocates a validated core of n threads.
func newCore(cfg Config, h *hier.Hierarchy, n int) *CPU {
	c := &CPU{
		cfg:         cfg,
		h:           h,
		pred:        make([]uint8, cfg.PredictorSz),
		threads:     make([]thread, n),
		retireWidth: max(1, cfg.IssueWidth/n),
		queueCap:    [2]int{max(1, cfg.IntQSize/n), max(1, cfg.FPQSize/n)},
		poolSize:    units{poolInt: cfg.IntALUs, poolFP: cfg.FPALUs, poolMem: cfg.LSUs},
	}
	size := cfg.ROBSize / n
	words := (size + 63) / 64
	for i := range c.threads {
		t := &c.threads[i]
		t.rob = make([]robEntry, size)
		t.cons = make([]uint64, size*words)
		t.ready = make([]uint64, words)
		t.wheel = make([]uint64, wheelSlots*words)
		t.late = make(wakeHeap, 0, size)
		t.blockedOn = -1
		for r := range t.rat {
			t.rat[r] = -1
		}
	}
	return c
}

// Run executes up to maxInstrs instructions from the stream (or until it
// ends) on a single-threaded CPU and returns the metrics. A zero maxInstrs
// means run to stream end.
func (c *CPU) Run(s trace.Stream, maxInstrs uint64) Metrics {
	return c.RunThreads([]trace.Stream{s}, maxInstrs)[0]
}

// RunThreads executes one stream per thread until every thread has
// retired maxInstrsPerThread instructions (or every stream has ended and
// drained), returning per-thread metrics with the shared cycle count
// filled in. A zero maxInstrsPerThread means run to stream end.
//
// The loop is event-driven where it can be: when a cycle retires nothing,
// issues nothing, hits no structural limit, and fetches nothing, every
// following cycle is identical until the next event (see nextEvent), so
// the clock jumps straight there. Skipped cycles touch no simulator state
// — no hierarchy access, no counter, no LRU update — so the metrics are
// bit-identical to stepping cycle by cycle; only the wall time changes.
// Low-IPC (memory-bound) regions, where most cycles are pure stall, are
// exactly where stepping would burn most of the time. Within stepped
// cycles the issue stage touches only ready instructions (see issue).
func (c *CPU) RunThreads(streams []trace.Stream, maxInstrsPerThread uint64) []Metrics {
	if len(streams) != len(c.threads) {
		panic(fmt.Sprintf("cpu: %d streams for %d threads", len(streams), len(c.threads)))
	}
	for i := range c.threads {
		c.threads[i].stream = streams[i]
		c.threads[i].target = maxInstrsPerThread
	}
	c.short, c.ended = 1<<uint(len(c.threads))-1, 0
	cycle := uint64(0)
	for {
		if c.cfg.MaxCycles != 0 && cycle >= c.cfg.MaxCycles {
			break
		}
		cycle++
		retired := c.retire(cycle)
		if c.short == 0 {
			break // every thread met its retire target
		}
		issued, limited := c.issue(cycle)
		fetched := c.fetch(cycle)
		if c.drained() {
			break
		}
		if retired == 0 && issued == 0 && fetched == 0 && !limited {
			if next, ok := c.nextEvent(cycle); ok && next > cycle+1 {
				if c.cfg.MaxCycles != 0 && next > c.cfg.MaxCycles+1 {
					next = c.cfg.MaxCycles + 1
				}
				cycle = next - 1
			}
		}
	}
	ms := make([]Metrics, len(c.threads))
	for i := range c.threads {
		ms[i] = c.threads[i].metrics
		ms[i].Cycles = cycle
		ops := &c.threads[i].retiredOps
		ms[i].Loads, ms[i].Stores, ms[i].Branches = ops[trace.Load], ops[trace.Store], ops[trace.Branch]
	}
	return ms
}

// drained reports whether every thread's stream has ended and its ROB
// emptied.
func (c *CPU) drained() bool {
	if c.ended != 1<<uint(len(c.threads))-1 {
		return false
	}
	for i := range c.threads {
		if c.threads[i].count > 0 {
			return false
		}
	}
	return true
}

// nextEvent returns the earliest future cycle at which the machine's state
// can change while the pipeline is quiescent: over all threads, the
// earliest arrival among armed entries, the ROB head's completion, or the
// fetch-resume cycle. ok is false when no such event exists. Per thread
// it scans the wheel's occupancy bitmap (wheelSlots/64 words) and reads
// three values.
//
// This is sound because a quiescent cycle (nothing retired, issued, or
// fetched; no structural-hazard retry pending, so every ready set is
// empty) can only be ended by one of those times arriving. An issue needs
// a ready entry, and an entry becomes ready only when its armed arrival
// cycle comes: the earliest arrival is the first occupied wheel slot after
// this cycle's (drained by this cycle's issue) or the overflow heap's
// minimum, whichever is sooner. Entries not yet armed wait on a producer
// that must itself issue first. A retirement
// needs a head to complete. A front end waits on retirement, on queue
// space or the blocking branch (both freed only by an issue), or on
// fetchResume; the round-robin fetch pointer offered every thread the
// stage and is back where it started. Any other instruction completing
// changes no state: nothing waits on its result except armed entries,
// whose arrival cycles already account for it.
func (c *CPU) nextEvent(cycle uint64) (uint64, bool) {
	earliest := ^uint64(0)
	for i := range c.threads {
		t := &c.threads[i]
		if d, ok := t.nextArmed(cycle); ok && cycle+d < earliest {
			earliest = cycle + d
		}
		if len(t.late) > 0 && t.late[0].at < earliest {
			earliest = t.late[0].at
		}
		if t.count > 0 {
			if e := &t.rob[t.head]; e.issued && e.done < earliest {
				earliest = e.done
			}
		}
		if c.ended&(1<<uint(i)) == 0 && t.fetchResume > cycle && t.fetchResume < earliest {
			earliest = t.fetchResume
		}
	}
	return earliest, earliest != ^uint64(0)
}

// nextArmed returns how many cycles after cycle the first occupied wheel
// slot comes, looking at the wheelSlots-1 slots after cycle's own. Every
// wheel entry arrives within that span of the cycle it was armed in and
// is drained by its arrival cycle's issue stage, so after cycle's issue
// stage the first occupied slot is the wheel's earliest arrival.
func (t *thread) nextArmed(cycle uint64) (uint64, bool) {
	from := (cycle + 1) & (wheelSlots - 1)
	wi := from >> 6
	if w := t.occupied[wi] &^ (uint64(1)<<(from&63) - 1); w != 0 {
		return wi<<6 + uint64(bits.TrailingZeros64(w)) - from + 1, true
	}
	for k := uint64(1); k <= uint64(len(t.occupied)); k++ {
		wj := (wi + k) % uint64(len(t.occupied))
		if w := t.occupied[wj]; w != 0 {
			slot := wj<<6 + uint64(bits.TrailingZeros64(w))
			return (slot-from)&(wheelSlots-1) + 1, true
		}
	}
	return 0, false
}

// retire commits completed instructions in order, each thread up to its
// share of the issue width, returning how many retired. A thread that
// meets its retire target leaves the short mask.
func (c *CPU) retire(cycle uint64) int {
	total := 0
	width := c.retireWidth
	for ti := range c.threads {
		t := &c.threads[ti]
		head, n := t.head, 0
		for n < width && n < t.count {
			e := &t.rob[head]
			if !e.issued || e.done > cycle {
				break
			}
			if d := e.in.Dest; d != trace.RegZero && t.rat[d] == head {
				t.rat[d] = -1 // the value is architectural state now
			}
			if op := int(e.in.Op); op < trace.NumOpClasses {
				t.retiredOps[op]++
			}
			if head++; head == len(t.rob) {
				head = 0
			}
			n++
		}
		if n == 0 {
			continue
		}
		t.head = head
		t.count -= n
		t.metrics.Instructions += uint64(n)
		total += n
		if t.target != 0 && t.metrics.Instructions >= t.target {
			c.short &^= 1 << uint(ti)
		}
	}
	return total
}

// issue selects ready instructions, respecting functional unit counts and
// issue width. First every thread's armed entries whose operands arrive
// by this cycle join its ready set: the wheel slot of this cycle and the
// overflow entries due. Then issue goes in rounds: each round
// offers every thread with ready entries left, thread 0 first, one issue,
// taken oldest first from its ready set (see readyWalk). An entry that hits a
// structural limit is passed over, stays ready and is retried next cycle.
// Instructions woken by this cycle's issues arrive no earlier than next
// cycle (every operation latency is at least one cycle and the hierarchy
// never completes an access in the cycle it starts), so they are armed,
// never added to the sets being walked: the walk sees exactly the entries
// a poll of every waiting instruction would find ready.
func (c *CPU) issue(cycle uint64) (issued int, limited bool) {
	active := uint(0) // bit ti: thread ti's walk has entries left
	for ti := range c.threads {
		t := &c.threads[ti]
		any := uint64(0)
		if slot := cycle & (wheelSlots - 1); t.occupied[slot>>6]&(1<<(slot&63)) != 0 {
			t.occupied[slot>>6] &^= 1 << (slot & 63)
			words := len(t.ready)
			mask := t.wheel[int(slot)*words : int(slot+1)*words]
			for i, w := range mask {
				t.ready[i] |= w
				mask[i] = 0
			}
		}
		for _, w := range t.ready {
			any |= w
		}
		for len(t.late) > 0 && t.late[0].at <= cycle {
			idx := t.late.pop().slot
			t.ready[idx>>6] |= uint64(1) << uint(idx&63)
			any = 1
		}
		if any != 0 {
			active |= 1 << uint(ti)
			t.startWalk()
		}
	}
	var u units
	for active != 0 {
		for ts := active; ts != 0; ts &= ts - 1 {
			ti := bits.TrailingZeros(ts)
			// One instruction per thread per round, unless no other
			// thread has entries left: this one would get every later
			// round, so it takes them now.
			quota := 1
			if active == 1<<uint(ti) {
				quota = c.cfg.IssueWidth - issued
			}
			n, lim, more := c.issueThread(&c.threads[ti], cycle, quota, &u)
			limited = limited || lim
			if issued += n; issued >= c.cfg.IssueWidth {
				return issued, limited
			}
			if !more {
				active &^= 1 << uint(ti)
			}
		}
	}
	return issued, limited
}

// units counts the functional units of each pool taken this cycle,
// shared by all threads.
type units [3]int

// The functional-unit pools, and each op class's pool and queue. The
// tables cover every byte so a trace's unknown class reads as an integer
// op, as ExecLatency treats it.
const (
	poolInt = iota
	poolFP
	poolMem
)

var (
	opPool  = [256]uint8{trace.FPOp: poolFP, trace.FPDiv: poolFP, trace.Load: poolMem, trace.Store: poolMem}
	opQueue = [256]uint8{trace.FPOp: 1, trace.FPDiv: 1}
)

// readyWalk is the issue stage's position in a thread's ready set this
// cycle. The walk visits it oldest first, in ring order from the ROB head:
// the head's word from the head up, the words after it, wrapping to word
// 0, and last the head's word again below the head. That is exactly age
// order for the occupied window (slots outside it, and slots past the
// partition's end, carry no bits). A word is read when the walk reaches
// it; issuing clears only bits the walk has already passed, so the
// snapshot stays exact.
type readyWalk struct {
	w    uint64 // unvisited ready bits of the word at base
	base int    // first slot of the current word
	k    int    // words stepped past the head's word
}

func (t *thread) startWalk() {
	t.walk = readyWalk{
		w:    t.ready[t.head>>6] &^ (uint64(1)<<uint(t.head&63) - 1),
		base: t.head &^ 63,
	}
}

// issueThread continues thread t's walk, issuing up to quota entries. It
// reports how many issued, whether any hit a structural limit, and
// whether the walk may have entries left.
func (c *CPU) issueThread(t *thread, cycle uint64, quota int, u *units) (n int, limited, more bool) {
	w, base, k := t.walk.w, t.walk.base, t.walk.k
	for {
		for w == 0 {
			if k++; k > len(t.ready) {
				return n, limited, false
			}
			wi := t.head>>6 + k
			if wi >= len(t.ready) {
				wi -= len(t.ready)
			}
			base, w = wi<<6, t.ready[wi]
			if k == len(t.ready) {
				w &= uint64(1)<<uint(t.head&63) - 1
			}
		}
		idx := base + bits.TrailingZeros64(w)
		w &= w - 1
		if !c.tryIssue(t, idx, cycle, u) {
			limited = true
			continue
		}
		if n++; n == quota {
			t.walk = readyWalk{w: w, base: base, k: k}
			return n, limited, true
		}
	}
}

// tryIssue attempts to issue the ready entry in thread t's ROB slot idx at
// cycle, charging the shared functional-unit counters and waking the
// entry's consumers. It returns false when the entry is structurally
// limited (a functional unit or MSHR was exhausted — the entry could
// retry as soon as next cycle, so the event-skipping fast path must not
// engage).
func (c *CPU) tryIssue(t *thread, idx int, cycle uint64, u *units) bool {
	e := &t.rob[idx]
	pool := opPool[e.in.Op]
	if u[pool] >= c.poolSize[pool] {
		return false
	}

	var done uint64
	switch e.in.Op {
	case trace.Load:
		res := c.h.Access(cycle, mem.Access{Addr: e.in.Addr, PC: e.in.PC, Type: mem.Load})
		if res.Stall {
			// MSHRs exhausted: the load waits; it will retry. Count it
			// and consume the LSU slot so younger loads don't bypass
			// the stall this cycle.
			t.metrics.LoadStallRetries++
			u[poolMem]++
			return false
		}
		done = res.Done
	case trace.Store:
		// Stores drain through a store buffer: the hierarchy sees the
		// access (bandwidth, MSHR, classification) but dependents and
		// retirement do not wait for the line.
		res := c.h.Access(cycle, mem.Access{Addr: e.in.Addr, PC: e.in.PC, Type: mem.Store})
		if res.Stall {
			t.metrics.LoadStallRetries++
			u[poolMem]++
			return false
		}
		done = cycle + 1
	default:
		done = cycle + uint64(e.in.Op.ExecLatency())
	}

	e.issued = true
	e.done = done
	t.ready[idx>>6] &^= uint64(1) << uint(idx&63)
	t.wakeConsumers(idx, cycle, done)
	u[pool]++
	t.queued[opQueue[e.in.Op]]--
	// A resolving mispredicted branch restarts fetch after the refill
	// penalty.
	if t.blockedOn == idx {
		t.blockedOn = -1
		t.fetchResume = done + uint64(c.cfg.MispredictPenalty)
	}
	return true
}

// wakeConsumers delivers producer idx's completion cycle to every entry
// waiting on it, arming each one whose last outstanding producer this was,
// and clears idx's consumer mask for the slot's next occupant.
func (t *thread) wakeConsumers(idx int, cycle, done uint64) {
	words := len(t.ready)
	mask := t.cons[idx*words : (idx+1)*words]
	for wi, w := range mask {
		if w == 0 {
			continue
		}
		mask[wi] = 0
		for w != 0 {
			j := wi<<6 + bits.TrailingZeros64(w)
			w &= w - 1
			e := &t.rob[j]
			if done > e.readyAt {
				e.readyAt = done
			}
			if e.waits--; e.waits == 0 {
				t.arm(j, cycle)
			}
		}
	}
}

// fetch offers the fetch stage to one thread per cycle, round-robin from
// fetchRR, passing it on while the offered thread fetches nothing, and
// returns how many instructions were dispatched. Only threads short of
// their target whose stream has not ended and whose front end is neither
// waiting (fetchResume) nor squashed by an unresolved misprediction are
// offered; the rest would fetch nothing. The pointer moves past the thread
// that fetched, or stays put when none did, as if every thread had been
// offered in turn.
func (c *CPU) fetch(cycle uint64) int {
	rr, fetchable := uint(c.fetchRR), c.short&^c.ended
	for _, m := range [2]uint{fetchable >> rr << rr, fetchable & (1<<rr - 1)} {
		for ; m != 0; m &= m - 1 {
			ti := bits.TrailingZeros(m)
			t := &c.threads[ti]
			if cycle < t.fetchResume || t.blockedOn >= 0 {
				continue
			}
			if n := c.fetchThread(t, ti, cycle); n > 0 {
				if c.fetchRR = ti + 1; c.fetchRR == len(c.threads) {
					c.fetchRR = 0
				}
				return n
			}
		}
	}
	return 0
}

// fetchThread brings thread t's (thread ti's) next instructions into its
// ROB partition and queues, in order, until the fetch width, a full ROB
// or queue, a mispredicted branch, or the end of its stream. When an
// instruction cache is attached to the hierarchy, crossing into a new
// instruction line costs an I-fetch; a miss stalls the front end until the
// line arrives.
func (c *CPU) fetchThread(t *thread, ti int, cycle uint64) (dispatched int) {
	for n := 0; n < c.cfg.FetchWidth; n++ {
		if t.count >= len(t.rob) {
			return dispatched
		}
		// Peek queue-space before consuming. Since streams are infinite or
		// long, consuming then failing to place would lose instructions;
		// stop before reading when either queue is full.
		if t.queued[0] >= c.queueCap[0] || t.queued[1] >= c.queueCap[1] {
			return dispatched
		}
		// Instructions decode straight into the free tail slot (a
		// loop-local Instr passed to the trace.Stream interface would
		// escape and cost an allocation per instruction).
		idx := t.tail
		e := &t.rob[idx]
		in := &e.in
		if t.pending {
			// Held back by an instruction-cache stall, already decoded.
			t.pending = false
		} else if !t.stream.Next(in) {
			c.ended |= 1 << uint(ti)
			return dispatched
		}
		// Crossing into a new instruction line costs an I-fetch; a miss
		// holds the instruction and stalls the front end until the line
		// arrives (a no-op single-cycle hit when no I-cache is attached).
		if line := mem.LineAddr(uint64(in.PC)>>6) + 1; line != t.fetchLine {
			res := c.h.IFetch(cycle, in.PC)
			if res.Stall {
				t.fetchResume = res.RetryAt
				t.pending = true
				return dispatched
			}
			t.fetchLine = line
			if res.Done > cycle+1 {
				t.fetchResume = res.Done
				t.pending = true
				return dispatched
			}
		}
		// Field-wise reset: a composite literal here costs a duffcopy of
		// the whole entry per fetched instruction.
		e.issued = false
		e.done = 0
		e.waits = 0
		e.readyAt = 0
		t.depend(idx, in.Src1)
		if in.Src2 != in.Src1 {
			t.depend(idx, in.Src2) // a repeated register names one producer
		}
		if e.waits == 0 {
			t.arm(idx, cycle)
		}
		if in.Dest != trace.RegZero {
			t.rat[in.Dest] = idx
		}
		t.tail++
		if t.tail == len(t.rob) {
			t.tail = 0
		}
		t.count++
		dispatched++
		t.queued[opQueue[in.Op]]++
		if in.Op == trace.Branch {
			if c.predict(in.PC) != in.Taken {
				t.metrics.Mispredicts++
				t.blockedOn = idx
				c.train(in.PC, in.Taken)
				return dispatched // fetch squashed until the branch resolves
			}
			c.train(in.PC, in.Taken)
		}
	}
	return dispatched
}

// arm schedules the entry in ROB slot idx, whose producers have all
// issued, to join the ready set when its operands arrive. The caller runs
// in cycle's issue or fetch stage, so the next issue stage is at cycle+1
// at the earliest: an entry arriving by then is filed for cycle+1. One
// arriving fewer than wheelSlots cycles after cycle goes into its
// arrival's wheel slot, which no entry of another arrival cycle can
// share: that slot's previous arrival cycle is drained by then, its next
// lies beyond the span. A later arrival goes into the overflow heap.
func (t *thread) arm(idx int, cycle uint64) {
	at := max(t.rob[idx].readyAt, cycle+1)
	if at-cycle >= wheelSlots {
		t.late.push(armedEntry{at: at, slot: idx})
		return
	}
	slot := int(at & (wheelSlots - 1))
	t.wheel[slot*len(t.ready)+idx>>6] |= uint64(1) << uint(idx&63)
	t.occupied[slot>>6] |= 1 << uint(slot&63)
}

// depend links the entry dispatching into ROB slot idx to the in-flight
// producer of source register reg, if there is one: an issued producer's
// completion cycle bounds readyAt, an unissued one is counted in waits and
// records idx in its consumer mask.
func (t *thread) depend(idx int, reg uint8) {
	if reg == trace.RegZero {
		return
	}
	p := t.rat[reg]
	if p < 0 {
		return // no in-flight producer: the value is architectural state
	}
	e, pe := &t.rob[idx], &t.rob[p]
	if pe.issued {
		if pe.done > e.readyAt {
			e.readyAt = pe.done
		}
		return
	}
	e.waits++
	t.cons[p*len(t.ready)+idx>>6] |= uint64(1) << uint(idx&63)
}

// predict reads the 2-bit counter for pc.
func (c *CPU) predict(pc mem.Addr) bool {
	return c.pred[(uint64(pc)>>2)&uint64(c.cfg.PredictorSz-1)] >= 2
}

// train updates the counter toward the outcome.
func (c *CPU) train(pc mem.Addr, taken bool) {
	i := (uint64(pc) >> 2) & uint64(c.cfg.PredictorSz-1)
	if taken {
		if c.pred[i] < 3 {
			c.pred[i]++
		}
	} else if c.pred[i] > 0 {
		c.pred[i]--
	}
}
