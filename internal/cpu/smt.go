package cpu

import (
	"fmt"

	"repro/internal/hier"
	"repro/internal/mem"
	"repro/internal/trace"
)

// SMT is the simultaneous-multithreading variant of the timing model,
// bringing the reproduction closer to the paper's actual infrastructure
// (SMTSIM) and giving Section 5.6's multithreading discussion measured
// numbers. The model follows the SMTSIM organization at the same level of
// abstraction as the single-threaded CPU:
//
//   - each hardware thread has its own ROB partition, register alias
//     table, and branch-predictor view (the counter table is shared, PCs
//     differ per thread's code layout);
//   - fetch is round-robin: each cycle, one thread fetches up to the full
//     fetch width (SMTSIM's RR.8 baseline policy);
//   - issue is simultaneous and shared: up to IssueWidth instructions per
//     cycle drawn from all threads' ready instructions, oldest-first
//     within a thread, threads interleaved round-robin for fairness,
//     sharing the ALU/LSU pools;
//   - all threads share one memory hierarchy, so they fight over cache
//     sets, MSHRs, buffer ports, and buses — the conflict-generation
//     mechanism the paper's multithreading section is about.
type SMT struct {
	cfg  Config
	h    *hier.Hierarchy
	pred []uint8

	threads []smtThread
	seq     uint64

	fetchRR int // next thread to fetch
	metrics []Metrics

	// Per-run scratch kept off the per-cycle path: pos is the issue
	// stage's per-thread scan positions, and scratchIn the fetch stage's
	// decode buffer (as in CPU, an Instr passed to a trace.Stream escapes,
	// so a loop-local one costs an allocation per instruction).
	pos       []int
	scratchIn trace.Instr
}

// smtEntry is one in-flight instruction of an SMT thread. Source operands
// are renamed at dispatch to (ROB index, sequence) pairs identifying their
// producers; a sequence mismatch means the producer has retired and the
// value is ready. The issue stage polls each unissued entry's producers.
type smtEntry struct {
	in     trace.Instr
	seq    uint64
	issued bool
	done   uint64

	p1, p2       int // producer ROB slots, -1 when the value is ready
	p1seq, p2seq uint64
}

// smtThread is one hardware context.
type smtThread struct {
	rob        []smtEntry
	head, tail int
	count      int
	intQ, fpQ  int

	rat    [trace.NumRegs]int
	ratSeq [trace.NumRegs]uint64

	fetchResume uint64
	blockedOn   int
	stream      trace.Stream
	streamEnded bool
	retired     uint64
	target      uint64
}

// NewSMT builds an SMT core over a shared hierarchy. Each thread gets a
// ROB partition of cfg.ROBSize/nthreads and the instruction queues are
// split the same way, mirroring a static partition of the paper's two
// 32-entry queues.
func NewSMT(cfg Config, h *hier.Hierarchy, nthreads int) (*SMT, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if nthreads < 1 || nthreads > 8 {
		return nil, fmt.Errorf("cpu: SMT supports 1-8 threads, got %d", nthreads)
	}
	if cfg.ROBSize/nthreads < 4 {
		return nil, fmt.Errorf("cpu: ROB of %d too small for %d threads", cfg.ROBSize, nthreads)
	}
	s := &SMT{
		cfg:     cfg,
		h:       h,
		pred:    make([]uint8, cfg.PredictorSz),
		threads: make([]smtThread, nthreads),
		metrics: make([]Metrics, nthreads),
		pos:     make([]int, nthreads),
	}
	for i := range s.threads {
		t := &s.threads[i]
		t.rob = make([]smtEntry, cfg.ROBSize/nthreads)
		t.blockedOn = -1
		for r := range t.rat {
			t.rat[r] = -1
		}
	}
	return s, nil
}

// MustNewSMT is NewSMT that panics on error.
func MustNewSMT(cfg Config, h *hier.Hierarchy, nthreads int) *SMT {
	s, err := NewSMT(cfg, h, nthreads)
	if err != nil {
		panic(err)
	}
	return s
}

// Run executes the threads' streams until every thread has retired
// maxInstrsPerThread instructions (or ended), returning per-thread
// metrics with the shared cycle count filled in.
func (s *SMT) Run(streams []trace.Stream, maxInstrsPerThread uint64) []Metrics {
	if len(streams) != len(s.threads) {
		panic(fmt.Sprintf("cpu: %d streams for %d threads", len(streams), len(s.threads)))
	}
	for i := range s.threads {
		s.threads[i].stream = streams[i]
		s.threads[i].target = maxInstrsPerThread
	}
	cycle := uint64(0)
	for {
		cycle++
		if s.cfg.MaxCycles != 0 && cycle > s.cfg.MaxCycles {
			break
		}
		s.retire(cycle)
		if s.allDone() {
			break
		}
		s.issue(cycle)
		s.fetch(cycle)
		if s.allIdle() {
			break
		}
	}
	for i := range s.metrics {
		s.metrics[i].Cycles = cycle
		s.metrics[i].Instructions = s.threads[i].retired
	}
	return append([]Metrics(nil), s.metrics...)
}

func (s *SMT) allDone() bool {
	for i := range s.threads {
		t := &s.threads[i]
		if t.target == 0 || t.retired < t.target {
			return false
		}
	}
	return true
}

func (s *SMT) allIdle() bool {
	for i := range s.threads {
		t := &s.threads[i]
		if t.count > 0 || !t.streamEnded {
			return false
		}
	}
	return true
}

// retire commits in order per thread, sharing the commit width equally.
func (s *SMT) retire(cycle uint64) {
	per := s.cfg.IssueWidth / len(s.threads)
	if per == 0 {
		per = 1
	}
	for ti := range s.threads {
		t := &s.threads[ti]
		for n := 0; n < per && t.count > 0; n++ {
			e := &t.rob[t.head]
			if !e.issued || e.done > cycle {
				break
			}
			t.retired++
			switch e.in.Op {
			case trace.Load:
				s.metrics[ti].Loads++
			case trace.Store:
				s.metrics[ti].Stores++
			case trace.Branch:
				s.metrics[ti].Branches++
			}
			t.head = (t.head + 1) % len(t.rob)
			t.count--
		}
	}
}

// issue wakes ready instructions across all threads, round-robin between
// threads per slot so no thread starves, sharing functional units.
func (s *SMT) issue(cycle uint64) {
	issued, lsu, ialu, falu := 0, 0, 0, 0
	// Per-thread scan positions (relative offset from head).
	pos := s.pos
	clear(pos)
	for issued < s.cfg.IssueWidth {
		progress := false
		for ti := range s.threads {
			if issued >= s.cfg.IssueWidth {
				break
			}
			t := &s.threads[ti]
			// Advance this thread's scan to its next issuable instruction.
			for ; pos[ti] < t.count; pos[ti]++ {
				idx := (t.head + pos[ti]) % len(t.rob)
				e := &t.rob[idx]
				if e.issued {
					continue
				}
				if !operandReadySMT(t, e.p1, e.p1seq, cycle) || !operandReadySMT(t, e.p2, e.p2seq, cycle) {
					continue
				}
				fp := e.in.Op.IsFP()
				switch {
				case e.in.Op.IsMem():
					if lsu >= s.cfg.LSUs {
						continue
					}
				case fp:
					if falu >= s.cfg.FPALUs {
						continue
					}
				default:
					if ialu >= s.cfg.IntALUs {
						continue
					}
				}
				var done uint64
				switch e.in.Op {
				case trace.Load:
					res := s.h.Access(cycle, mem.Access{Addr: e.in.Addr, PC: e.in.PC, Type: mem.Load})
					if res.Stall {
						s.metrics[ti].LoadStallRetries++
						lsu++
						continue
					}
					done = res.Done
				case trace.Store:
					res := s.h.Access(cycle, mem.Access{Addr: e.in.Addr, PC: e.in.PC, Type: mem.Store})
					if res.Stall {
						s.metrics[ti].LoadStallRetries++
						lsu++
						continue
					}
					done = cycle + 1
				default:
					done = cycle + uint64(e.in.Op.ExecLatency())
				}
				e.issued = true
				e.done = done
				if e.in.Op.IsMem() {
					lsu++
				} else if fp {
					falu++
				} else {
					ialu++
				}
				if fp {
					t.fpQ--
				} else {
					t.intQ--
				}
				if t.blockedOn == idx {
					t.blockedOn = -1
					t.fetchResume = done + uint64(s.cfg.MispredictPenalty)
				}
				issued++
				progress = true
				pos[ti]++
				break // one instruction per thread per round
			}
		}
		if !progress {
			break
		}
	}
}

// operandReadySMT reports whether a renamed operand's value is available
// at the given cycle: either the producer slot was recycled (it retired)
// or it has issued and completed.
func operandReadySMT(t *smtThread, slot int, seq, cycle uint64) bool {
	if slot < 0 {
		return true
	}
	p := &t.rob[slot]
	if p.seq != seq {
		return true
	}
	return p.issued && p.done <= cycle
}

// fetch gives the full fetch width to one thread per cycle, round-robin,
// skipping threads that are squashed, out of ROB space, or finished.
func (s *SMT) fetch(cycle uint64) {
	n := len(s.threads)
	perQ := s.cfg.IntQSize / n
	if perQ < 1 {
		perQ = 1
	}
	for attempt := 0; attempt < n; attempt++ {
		ti := s.fetchRR
		s.fetchRR = (s.fetchRR + 1) % n
		t := &s.threads[ti]
		if t.streamEnded || cycle < t.fetchResume || t.blockedOn >= 0 {
			continue
		}
		if t.target != 0 && t.retired >= t.target {
			continue
		}
		fetched := false
		for k := 0; k < s.cfg.FetchWidth; k++ {
			if t.count >= len(t.rob) || t.intQ >= perQ || t.fpQ >= perQ {
				break
			}
			in := &s.scratchIn
			if !t.stream.Next(in) {
				t.streamEnded = true
				break
			}
			idx := t.tail
			s.seq++
			e := smtEntry{in: *in, seq: s.seq, p1: -1, p2: -1}
			if in.Src1 != trace.RegZero && t.rat[in.Src1] >= 0 {
				e.p1, e.p1seq = t.rat[in.Src1], t.ratSeq[in.Src1]
			}
			if in.Src2 != trace.RegZero && t.rat[in.Src2] >= 0 {
				e.p2, e.p2seq = t.rat[in.Src2], t.ratSeq[in.Src2]
			}
			t.rob[idx] = e
			if in.Dest != trace.RegZero {
				t.rat[in.Dest] = idx
				t.ratSeq[in.Dest] = s.seq
			}
			t.tail = (t.tail + 1) % len(t.rob)
			t.count++
			fetched = true
			if in.Op.IsFP() {
				t.fpQ++
			} else {
				t.intQ++
			}
			if in.Op == trace.Branch {
				i := (uint64(in.PC) >> 2) & uint64(s.cfg.PredictorSz-1)
				predictTaken := s.pred[i] >= 2
				if predictTaken != in.Taken {
					s.metrics[ti].Mispredicts++
					t.blockedOn = idx
				}
				if in.Taken {
					if s.pred[i] < 3 {
						s.pred[i]++
					}
				} else if s.pred[i] > 0 {
					s.pred[i]--
				}
				if t.blockedOn == idx {
					break
				}
			}
		}
		if fetched {
			return // one thread fetches per cycle
		}
	}
}
