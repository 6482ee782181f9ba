// Package hier is the timing model of the paper's three-level memory
// hierarchy. It wraps any functional assist.System (plain cache, victim,
// prefetch, exclusion, pseudo-associative, or AMB) with the paper's Sec-4
// machine costs:
//
//   - an 8-way-banked L1 (a bank is busy one cycle per hit, two per swap);
//   - the assist buffer's two read/two write ports (a word to the CPU in
//     one extra cycle; a full line read or write holds a port two cycles;
//     a swap holds two ports for two cycles);
//   - an L1–L2 bus with configurable occupancy (the Figure-4 prefetch
//     study uses a slower bus);
//   - a 1MB 2-way L2 20 cycles from the processor and memory 100 cycles
//     from the CPU, both without contention;
//   - 16 MSHRs: misses beyond the limit stall demand accesses and discard
//     prefetches.
//
// Functional state advances immediately on access; in-flight latency is
// tracked per line, so a second access to an in-flight line completes when
// the line arrives (MSHR merging), and an in-flight prefetched line hit by
// a demand access yields the partial latency hiding of a late prefetch.
package hier

import (
	"fmt"

	"repro/internal/assist"
	"repro/internal/cache"
	"repro/internal/mem"
)

// Config sets the timing parameters. DefaultConfig reproduces Sec 4.
type Config struct {
	// L1Banks is the number of interleaved L1 banks (by set index).
	L1Banks int
	// L1HitLatency is the load-to-use latency of a primary hit.
	L1HitLatency int
	// BufferExtraLatency is the additional latency of an assist-buffer hit
	// ("can provide data with a single additional cycle").
	BufferExtraLatency int
	// SecondaryExtraLatency is the additional latency of a
	// pseudo-associative secondary-location hit.
	SecondaryExtraLatency int
	// L2Latency is cycles from processor to L2 data (no contention).
	L2Latency int
	// MemLatency is cycles from processor to memory data (no contention).
	MemLatency int
	// L1L2BusOccupancy is bus cycles consumed per line moved between L1
	// and L2 (fills and writebacks).
	L1L2BusOccupancy int
	// MemBusOccupancy is memory-bus cycles per line to/from memory.
	MemBusOccupancy int
	// MSHRs is the maximum number of in-flight line misses.
	MSHRs int
	// L2 is the second-level cache shape.
	L2 cache.Config
}

// DefaultConfig returns the paper's Section-4 machine.
func DefaultConfig() Config {
	return Config{
		L1Banks:               8,
		L1HitLatency:          1,
		BufferExtraLatency:    1,
		SecondaryExtraLatency: 2,
		L2Latency:             20,
		MemLatency:            100,
		L1L2BusOccupancy:      2,
		MemBusOccupancy:       4,
		MSHRs:                 16,
		L2:                    cache.Config{Name: "L2", Size: 1 << 20, LineSize: 64, Assoc: 2},
	}
}

// SlowBusConfig is DefaultConfig with the slower L1–L2 bus used for the
// prefetch speedup study ("the speedup results shown are for a system with
// a slower memory bus between the L1 and L2 caches").
func SlowBusConfig() Config {
	c := DefaultConfig()
	c.L1L2BusOccupancy = 8
	return c
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.L1Banks <= 0 || c.L1Banks&(c.L1Banks-1) != 0 {
		return fmt.Errorf("hier: L1Banks must be a positive power of two, got %d", c.L1Banks)
	}
	if c.MSHRs <= 0 {
		return fmt.Errorf("hier: MSHRs must be positive, got %d", c.MSHRs)
	}
	if c.L1HitLatency <= 0 || c.L2Latency <= c.L1HitLatency || c.MemLatency <= c.L2Latency {
		return fmt.Errorf("hier: latencies must increase L1 < L2 < memory")
	}
	return c.L2.Validate()
}

// Result is the timing outcome of one demand access.
type Result struct {
	// Done is the cycle the data is available to dependents.
	Done uint64
	// Stall reports that no MSHR was available: the access did not happen
	// and must be retried (functional state untouched).
	Stall bool
	// RetryAt is the earliest cycle an MSHR frees up (valid when Stall).
	RetryAt uint64
}

// Stats counts the hierarchy's timing-level events.
type Stats struct {
	Accesses           uint64
	L2Accesses         uint64
	L2Hits             uint64
	L2Misses           uint64
	Writebacks         uint64
	PrefetchesSent     uint64
	PrefetchesDropped  uint64
	MSHRStalls         uint64
	BankConflictCycles uint64
	BusWaitCycles      uint64
}

// Hierarchy couples a functional System with the timing state.
type Hierarchy struct {
	cfg  Config
	sys  assist.System
	l2   *cache.Cache
	geom mem.Geometry // line-level geometry for bank mapping

	bankBusy  []uint64
	readPort  [2]uint64
	writePort [2]uint64
	busBusy   uint64
	memBusy   uint64

	pending missSet // in-flight data-side line fills

	// Instruction side (optional; see icache.go).
	isys      assist.System
	ipending  missSet // in-flight instruction-side line fills
	ibankBusy uint64
	istats    IStats

	stats Stats
}

// New builds a hierarchy around a functional system.
func New(cfg Config, sys assist.System) (*Hierarchy, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	l2, err := cache.New(cfg.L2)
	if err != nil {
		return nil, err
	}
	geom, err := mem.NewGeometry(cfg.L2.LineSize, cfg.L1Banks)
	if err != nil {
		return nil, err
	}
	return &Hierarchy{
		cfg:      cfg,
		sys:      sys,
		l2:       l2,
		geom:     geom,
		bankBusy: make([]uint64, cfg.L1Banks),
		pending:  make(missSet, 0, cfg.MSHRs+1),
	}, nil
}

// MustNew is New that panics on error.
func MustNew(cfg Config, sys assist.System) *Hierarchy {
	h, err := New(cfg, sys)
	if err != nil {
		panic(err)
	}
	return h
}

// Stats returns a snapshot of the timing counters.
func (h *Hierarchy) Stats() Stats { return h.stats }

// pendingMiss is one in-flight line fill: the line and the cycle its data
// is ready.
type pendingMiss struct {
	line  mem.LineAddr
	ready uint64
}

// missSet tracks one side's in-flight line fills; the data and
// instruction sides each keep one. A set never outgrows its MSHR count by
// more than the completed-but-unpurged entries, so a flat slice with
// linear lookups beats a map: no hashing on the per-access membership
// probe, no iterator machinery in inflight's purge. Both counting and the
// earliest-completion minimum are order-independent, so entry order
// cannot perturb timing.
type missSet []pendingMiss

// readyAt returns the completion cycle of an in-flight line, if any.
func (s missSet) readyAt(line mem.LineAddr) (uint64, bool) {
	for i := range s {
		if s[i].line == line {
			return s[i].ready, true
		}
	}
	return 0, false
}

// set records (or refreshes) a line's completion cycle.
func (s *missSet) set(line mem.LineAddr, ready uint64) {
	for i := range *s {
		if (*s)[i].line == line {
			(*s)[i].ready = ready
			return
		}
	}
	*s = append(*s, pendingMiss{line: line, ready: ready})
}

// inflight returns how many misses are outstanding at cycle now, purging
// completed entries as a side effect, and the earliest completion time.
func (s *missSet) inflight(now uint64) (int, uint64) {
	q := *s
	earliest := ^uint64(0)
	for i := 0; i < len(q); {
		ready := q[i].ready
		if ready <= now {
			last := len(q) - 1
			q[i] = q[last]
			q = q[:last]
			continue
		}
		if ready < earliest {
			earliest = ready
		}
		i++
	}
	*s = q
	return len(q), earliest
}

// bank returns the L1 bank serving addr (interleaved by line).
func (h *Hierarchy) bank(addr mem.Addr) int {
	return int(h.geom.Set(addr)) // geometry with L1Banks "sets" = line % banks
}

// acquirePort reserves the earliest-free port from a two-port pool
// starting no earlier than at, for dur cycles, and returns the start time.
func acquirePort(ports *[2]uint64, at, dur uint64) uint64 {
	i := 0
	if ports[1] < ports[0] {
		i = 1
	}
	start := at
	if ports[i] > start {
		start = ports[i]
	}
	ports[i] = start + dur
	return start
}

// Access runs one demand access at cycle now and returns when its data is
// ready. The CPU must not reorder calls for the same cycle in a way that
// depends on Result; the hierarchy is deterministic given the call order.
func (h *Hierarchy) Access(now uint64, acc mem.Access) Result {
	inL1, inBuf := h.sys.Contains(acc.Addr)
	line := mem.LineAddr(uint64(acc.Addr) >> 6)
	if !inL1 && !inBuf {
		if _, already := h.pending.readyAt(line); !already {
			if n, earliest := h.pending.inflight(now); n >= h.cfg.MSHRs {
				h.stats.MSHRStalls++
				return Result{Stall: true, RetryAt: earliest}
			}
		}
	}

	h.stats.Accesses++
	out := h.sys.Access(acc)

	// Bank access for anything touching the L1 arrays.
	b := h.bank(acc.Addr)
	start := now
	if h.bankBusy[b] > start {
		h.stats.BankConflictCycles += h.bankBusy[b] - start
		start = h.bankBusy[b]
	}

	var done uint64
	switch {
	case out.L1Hit:
		done = start + uint64(h.cfg.L1HitLatency)
		h.bankBusy[b] = start + 1

	case out.SecondaryHit:
		done = start + uint64(h.cfg.L1HitLatency+h.cfg.SecondaryExtraLatency)
		h.bankBusy[b] = start + 2 // probe + swap occupy the arrays

	case out.BufferHit:
		// Probe happens after the L1 miss; a word is returned in one extra
		// cycle through a read port.
		pstart := acquirePort(&h.readPort, start+uint64(h.cfg.L1HitLatency), 1)
		done = pstart + uint64(h.cfg.BufferExtraLatency)
		h.bankBusy[b] = start + 1
		if out.Swap {
			// A line swap occupies a read and a write port and the bank
			// for two cycles each.
			acquirePort(&h.readPort, done, 2)
			acquirePort(&h.writePort, done, 2)
			h.bankBusy[b] = done + 2
		}

	default: // L2-bound miss
		done = h.missPath(start, acc, out)
		h.pending.set(line, done)
		h.bankBusy[b] = start + 1
		if out.BufferFill {
			// Stashing the displaced line (victim fill or bypass) reads
			// the victim's data out of the bank before the new line can
			// land: one extra array cycle on the contended bank.
			h.bankBusy[b] = start + 2
		}
	}

	// A line still in flight bounds completion from below (merged miss or
	// in-flight prefetch).
	if ready, ok := h.pending.readyAt(line); ok && ready > done {
		done = ready
	}

	// Buffer fills (victim stash, bypass) consume a write port; they do
	// not delay the demand access itself.
	if out.BufferFill {
		acquirePort(&h.writePort, done, 2)
	}
	// Dirty evictions travel over the L1-L2 bus. The victim's data is
	// available at eviction time (a write buffer holds it), so the
	// transfer queues behind current bus traffic rather than waiting for
	// the incoming line.
	if out.Writeback {
		h.stats.Writebacks++
		h.busBusy = maxU64(h.busBusy, now) + uint64(h.cfg.L1L2BusOccupancy)
	}

	// Issue requested prefetches while MSHRs remain; drop the rest.
	for _, pf := range out.Prefetches {
		h.issuePrefetch(now, pf)
	}
	return Result{Done: done}
}

// missPath prices an L2/memory round trip beginning after the L1+buffer
// probes and returns the data-ready cycle, updating bus state and the L2's
// functional contents.
func (h *Hierarchy) missPath(start uint64, acc mem.Access, out assist.Outcome) uint64 {
	req := start + uint64(h.cfg.L1HitLatency+h.cfg.BufferExtraLatency)
	busFree := maxU64(req, h.busBusy)
	if busFree > req {
		h.stats.BusWaitCycles += busFree - req
	}
	h.busBusy = busFree + uint64(h.cfg.L1L2BusOccupancy)

	h.stats.L2Accesses++
	if h.l2.Access(acc.Addr, acc.Type) {
		h.stats.L2Hits++
		return busFree + uint64(h.cfg.L2Latency)
	}
	h.stats.L2Misses++
	h.l2.Fill(acc.Addr, acc.Type == mem.Store, false)
	memStart := maxU64(busFree+uint64(h.cfg.L2Latency), h.memBusy)
	h.memBusy = memStart + uint64(h.cfg.MemBusOccupancy)
	return memStart + uint64(h.cfg.MemLatency-h.cfg.L2Latency)
}

// issuePrefetch sends a prefetch down the miss path if an MSHR is free;
// otherwise it is discarded (paper Sec 4: "prefetches are discarded").
func (h *Hierarchy) issuePrefetch(now uint64, line mem.LineAddr) {
	if _, already := h.pending.readyAt(line); already {
		return
	}
	if n, _ := h.pending.inflight(now); n >= h.cfg.MSHRs {
		h.stats.PrefetchesDropped++
		return
	}
	addr := mem.Addr(uint64(line) << 6)
	ready := h.missPath(now, mem.Access{Addr: addr, Type: mem.PrefetchRead}, assist.Outcome{})
	h.pending.set(line, ready)
	h.stats.PrefetchesSent++
	h.sys.PrefetchArrived(line)
}

func maxU64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
