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
	// MaxCycles bounds a run defensively; 0 means no bound.
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

// armedEntry is a ROB slot whose producers have all issued, waiting for
// cycle at, when its last operand arrives.
type armedEntry struct {
	at   uint64
	slot int
}

// wakeHeap is a binary min-heap of armed entries keyed by arrival cycle.
// Each slot is armed at most once while it is occupied and leaves the
// heap before it can issue, so ROBSize bounds the heap and a heap
// preallocated to that capacity never grows.
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

// CPU is the processor state for one run.
type CPU struct {
	cfg  Config
	h    *hier.Hierarchy
	pred []uint8

	rob        []robEntry
	head, tail int // ring; count tracks occupancy
	count      int
	intQ, fpQ  int // unissued occupancy per queue

	// The wakeup/select scheduler. Masks are bitsets over ROB slots,
	// words uint64s each. cons holds one mask per producer slot (slot p's
	// at cons[p*words:]): the unissued entries whose operands wait on p's
	// result. ready holds the entries whose operands are available, the
	// only ones the issue stage visits. An entry whose producers have all
	// issued is armed (see arm): into next when its operands arrive by
	// the next issue stage, which covers every dispatch-time arming and
	// every single-cycle wakeup without a heap operation, into wake when
	// they arrive later.
	words int
	cons  []uint64
	ready []uint64
	next  []uint64
	wake  wakeHeap

	// rat is the register alias table: the ROB slot of each architectural
	// register's latest in-flight producer, -1 once that producer retires.
	rat [trace.NumRegs]int

	fetchResume  uint64
	blockedOn    int // ROB slot of unresolved mispredicted branch, -1 none
	metrics      Metrics
	streamEnded  bool
	retireTarget uint64

	// Instruction-fetch line tracking: fetchLine is 1 + the line of the
	// last I-fetch (0 = none yet); pending holds an instruction stalled on
	// an instruction-cache miss.
	fetchLine mem.LineAddr
	pending   bool
	pendingIn trace.Instr

	// scratchIn is the fetch stage's decode buffer. Streams are consumed
	// through the trace.Stream interface, so a loop-local Instr passed to
	// Next escapes and costs one heap allocation per instruction; reusing
	// a field keeps fetch allocation-free.
	scratchIn trace.Instr
}

// New builds a CPU over a memory hierarchy.
func New(cfg Config, h *hier.Hierarchy) (*CPU, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	words := (cfg.ROBSize + 63) / 64
	c := &CPU{
		cfg:       cfg,
		h:         h,
		pred:      make([]uint8, cfg.PredictorSz),
		rob:       make([]robEntry, cfg.ROBSize),
		words:     words,
		cons:      make([]uint64, cfg.ROBSize*words),
		ready:     make([]uint64, words),
		next:      make([]uint64, words),
		wake:      make(wakeHeap, 0, cfg.ROBSize),
		blockedOn: -1,
	}
	for i := range c.rat {
		c.rat[i] = -1
	}
	return c, nil
}

// MustNew is New that panics on error.
func MustNew(cfg Config, h *hier.Hierarchy) *CPU {
	c, err := New(cfg, h)
	if err != nil {
		panic(err)
	}
	return c
}

// Run executes up to maxInstrs instructions from the stream (or until it
// ends) and returns the metrics. A zero maxInstrs means run to stream end.
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
func (c *CPU) Run(s trace.Stream, maxInstrs uint64) Metrics {
	c.retireTarget = maxInstrs
	cycle := uint64(0)
	for {
		cycle++
		if c.cfg.MaxCycles != 0 && cycle > c.cfg.MaxCycles {
			break
		}
		retired := c.retire(cycle)
		if c.retireTarget != 0 && c.metrics.Instructions >= c.retireTarget {
			break
		}
		issued, limited := c.issue(cycle)
		fetched := c.fetch(cycle, s)
		if c.count == 0 && c.streamEnded {
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
	c.metrics.Cycles = cycle
	return c.metrics
}

// nextEvent returns the earliest future cycle at which the machine's state
// can change while the pipeline is quiescent: the earliest arrival among
// armed entries, the ROB head's completion, or the fetch-resume cycle. ok
// is false when no such event exists. It reads three values and scans
// nothing.
//
// This is sound because a quiescent cycle (nothing retired, issued, or
// fetched; no structural-hazard retry pending, so the ready set is empty)
// can only be ended by one of those times arriving. An issue needs a
// ready entry, and an entry becomes ready only when its armed arrival
// cycle comes: next is empty, since only a cycle that issued or fetched
// fills it, so the earliest arrival is the heap's minimum. Entries not
// yet armed wait on a producer that must itself issue first. A retirement needs the head to complete. The front end
// waits on retirement, on queue space or the blocking branch (both freed
// only by an issue), or on fetchResume. Any other instruction completing
// changes no state: nothing waits on its result except armed entries,
// whose arrival cycles already account for it.
func (c *CPU) nextEvent(cycle uint64) (uint64, bool) {
	earliest := ^uint64(0)
	if len(c.wake) > 0 {
		earliest = c.wake[0].at
	}
	if c.count > 0 {
		if e := &c.rob[c.head]; e.issued && e.done < earliest {
			earliest = e.done
		}
	}
	if !c.streamEnded && c.fetchResume > cycle && c.fetchResume < earliest {
		earliest = c.fetchResume
	}
	return earliest, earliest != ^uint64(0)
}

// retire commits completed instructions in order, up to issue width,
// returning how many retired.
func (c *CPU) retire(cycle uint64) int {
	n := 0
	for ; n < c.cfg.IssueWidth && c.count > 0; n++ {
		e := &c.rob[c.head]
		if !e.issued || e.done > cycle {
			return n
		}
		c.metrics.Instructions++
		if d := e.in.Dest; d != trace.RegZero && c.rat[d] == c.head {
			c.rat[d] = -1 // the value is architectural state now
		}
		switch e.in.Op {
		case trace.Load:
			c.metrics.Loads++
		case trace.Store:
			c.metrics.Stores++
		case trace.Branch:
			c.metrics.Branches++
		}
		c.head++
		if c.head == c.cfg.ROBSize {
			c.head = 0
		}
		c.count--
	}
	return n
}

// issue selects ready instructions oldest first, respecting functional
// unit counts and issue width. First every armed entry whose operands
// arrive by this cycle joins the ready set; then the ready set is walked
// in ring order from the ROB head: slot order over [head, size) then
// [0, head) is exactly age order for the occupied window, and slots
// outside it carry no bits. An entry that hits a structural limit stays
// ready and is retried next cycle. Instructions woken by this cycle's
// issues arrive no earlier than next cycle (every operation latency is at
// least one cycle and the hierarchy never completes an access in the
// cycle it starts), so they are armed, never added to the set being
// walked: the walk sees exactly the entries a poll of every waiting
// instruction would find ready.
func (c *CPU) issue(cycle uint64) (nIssued int, limited bool) {
	for i, w := range c.next {
		c.ready[i] |= w
	}
	clear(c.next)
	for len(c.wake) > 0 && c.wake[0].at <= cycle {
		idx := c.wake.pop().slot
		c.ready[idx>>6] |= uint64(1) << uint(idx&63)
	}
	issued, lsu, ialu, falu := 0, 0, 0, 0
	size := c.cfg.ROBSize
	lo, hi := c.head, size
	for seg := 0; seg < 2; seg++ {
		for base := lo &^ 63; base < hi; base += 64 {
			w := c.ready[base>>6]
			if lo > base {
				w &= ^uint64(0) << uint(lo-base)
			}
			if hi-base < 64 {
				w &= uint64(1)<<uint(hi-base) - 1
			}
			for w != 0 {
				idx := base + bits.TrailingZeros64(w)
				w &= w - 1
				if !c.tryIssue(idx, cycle, &lsu, &ialu, &falu) {
					limited = true
					continue
				}
				if issued++; issued >= c.cfg.IssueWidth {
					return issued, limited
				}
			}
		}
		lo, hi = 0, c.head
	}
	return issued, limited
}

// tryIssue attempts to issue the ready entry in ROB slot idx at cycle,
// charging the functional-unit counters and waking the entry's consumers.
// It returns false when the entry is structurally limited (a functional
// unit or MSHR was exhausted — the entry could retry as soon as next
// cycle, so the event-skipping fast path must not engage).
func (c *CPU) tryIssue(idx int, cycle uint64, lsu, ialu, falu *int) bool {
	e := &c.rob[idx]
	fp := e.in.Op.IsFP()
	switch {
	case e.in.Op.IsMem():
		if *lsu >= c.cfg.LSUs {
			return false
		}
	case fp:
		if *falu >= c.cfg.FPALUs {
			return false
		}
	default:
		if *ialu >= c.cfg.IntALUs {
			return false
		}
	}

	var done uint64
	switch e.in.Op {
	case trace.Load:
		res := c.h.Access(cycle, mem.Access{Addr: e.in.Addr, PC: e.in.PC, Type: mem.Load})
		if res.Stall {
			// MSHRs exhausted: the load waits; it will retry. Count it
			// and consume the LSU slot so younger loads don't bypass
			// the stall this cycle.
			c.metrics.LoadStallRetries++
			*lsu++
			return false
		}
		done = res.Done
	case trace.Store:
		// Stores drain through a store buffer: the hierarchy sees the
		// access (bandwidth, MSHR, classification) but dependents and
		// retirement do not wait for the line.
		res := c.h.Access(cycle, mem.Access{Addr: e.in.Addr, PC: e.in.PC, Type: mem.Store})
		if res.Stall {
			c.metrics.LoadStallRetries++
			*lsu++
			return false
		}
		done = cycle + 1
	default:
		done = cycle + uint64(e.in.Op.ExecLatency())
	}

	e.issued = true
	e.done = done
	c.ready[idx>>6] &^= uint64(1) << uint(idx&63)
	c.wakeConsumers(idx, cycle, done)
	if e.in.Op.IsMem() {
		*lsu++
	} else if fp {
		*falu++
	} else {
		*ialu++
	}
	if fp {
		c.fpQ--
	} else {
		c.intQ--
	}
	// A resolving mispredicted branch restarts fetch after the refill
	// penalty.
	if c.blockedOn == idx {
		c.blockedOn = -1
		c.fetchResume = done + uint64(c.cfg.MispredictPenalty)
	}
	return true
}

// wakeConsumers delivers producer idx's completion cycle to every entry
// waiting on it, arming each one whose last outstanding producer this was,
// and clears idx's consumer mask for the slot's next occupant.
func (c *CPU) wakeConsumers(idx int, cycle, done uint64) {
	mask := c.cons[idx*c.words : (idx+1)*c.words]
	for wi, w := range mask {
		if w == 0 {
			continue
		}
		mask[wi] = 0
		for w != 0 {
			j := wi<<6 + bits.TrailingZeros64(w)
			w &= w - 1
			e := &c.rob[j]
			if done > e.readyAt {
				e.readyAt = done
			}
			if e.waits--; e.waits == 0 {
				c.arm(j, cycle)
			}
		}
	}
}

// fetch brings new instructions into the ROB and queues, in order, unless
// the front end is squashed by an unresolved misprediction. When an
// instruction cache is attached to the hierarchy, crossing into a new
// instruction line costs an I-fetch; a miss stalls the front end until
// the line arrives.
func (c *CPU) fetch(cycle uint64, s trace.Stream) (dispatched int) {
	if c.streamEnded || cycle < c.fetchResume || c.blockedOn >= 0 {
		return 0
	}
	if c.retireTarget != 0 && c.metrics.Instructions >= c.retireTarget {
		return 0
	}
	for n := 0; n < c.cfg.FetchWidth; n++ {
		if c.count >= c.cfg.ROBSize {
			return dispatched
		}
		// Peek queue-space before consuming. Since streams are infinite or
		// long, consuming then failing to place would lose instructions;
		// stop before reading when either queue is full.
		if c.intQ >= c.cfg.IntQSize || c.fpQ >= c.cfg.FPQSize {
			return dispatched
		}
		in := &c.scratchIn
		if c.pending {
			// An instruction held back by an instruction-cache stall.
			*in = c.pendingIn
			c.pending = false
		} else if !s.Next(in) {
			c.streamEnded = true
			return dispatched
		}
		// Crossing into a new instruction line costs an I-fetch; a miss
		// holds the instruction and stalls the front end until the line
		// arrives (a no-op single-cycle hit when no I-cache is attached).
		if line := mem.LineAddr(uint64(in.PC)>>6) + 1; line != c.fetchLine {
			res := c.h.IFetch(cycle, in.PC)
			if res.Stall {
				c.fetchResume = res.RetryAt
				c.pendingIn, c.pending = *in, true
				return dispatched
			}
			c.fetchLine = line
			if res.Done > cycle+1 {
				c.fetchResume = res.Done
				c.pendingIn, c.pending = *in, true
				return dispatched
			}
		}
		idx := c.tail
		e := &c.rob[idx]
		// Field-wise reset: a composite literal here costs a duffcopy of
		// the whole entry per fetched instruction.
		e.in = *in
		e.issued = false
		e.done = 0
		e.waits = 0
		e.readyAt = 0
		c.depend(idx, in.Src1)
		if in.Src2 != in.Src1 {
			c.depend(idx, in.Src2) // a repeated register names one producer
		}
		if e.waits == 0 {
			c.arm(idx, cycle)
		}
		if in.Dest != trace.RegZero {
			c.rat[in.Dest] = idx
		}
		c.tail++
		if c.tail == c.cfg.ROBSize {
			c.tail = 0
		}
		c.count++
		dispatched++
		if in.Op.IsFP() {
			c.fpQ++
		} else {
			c.intQ++
		}
		if in.Op == trace.Branch {
			if c.predict(in.PC) != in.Taken {
				c.metrics.Mispredicts++
				c.blockedOn = idx
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
// at the earliest: an entry arriving by then goes into next, later ones
// into the heap.
func (c *CPU) arm(idx int, cycle uint64) {
	if at := c.rob[idx].readyAt; at > cycle+1 {
		c.wake.push(armedEntry{at: at, slot: idx})
		return
	}
	c.next[idx>>6] |= uint64(1) << uint(idx&63)
}

// depend links the entry dispatching into ROB slot idx to the in-flight
// producer of source register reg, if there is one: an issued producer's
// completion cycle bounds readyAt, an unissued one is counted in waits and
// records idx in its consumer mask.
func (c *CPU) depend(idx int, reg uint8) {
	if reg == trace.RegZero {
		return
	}
	p := c.rat[reg]
	if p < 0 {
		return // no in-flight producer: the value is architectural state
	}
	e, pe := &c.rob[idx], &c.rob[p]
	if pe.issued {
		if pe.done > e.readyAt {
			e.readyAt = pe.done
		}
		return
	}
	e.waits++
	c.cons[p*c.words+idx>>6] |= uint64(1) << uint(idx&63)
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
