package hier

import (
	"repro/internal/assist"
	"repro/internal/mem"
)

// Instruction-fetch support. The paper simulates first-level instruction
// and data caches over a unified L2 and notes its techniques "should, in
// general, also apply to the instruction cache"; this file provides the
// I-side plumbing so any assist.System (bare cache, victim cache, AMB)
// can serve instruction fetch. The I-side has its own small MSHR pool and
// fetch port but shares the L1-L2 bus, the unified L2, and the memory bus
// with the data side, so heavy data traffic delays instruction refills
// exactly as it would in the machine.

// iMSHRs is the instruction-side outstanding-miss limit; front ends
// tolerate far fewer parallel misses than data caches.
const iMSHRs = 4

// AttachI installs an instruction-cache system. Call before simulation.
func (h *Hierarchy) AttachI(sys assist.System) {
	h.isys = sys
}

// IStats counts instruction-side events.
type IStats struct {
	Fetches    uint64
	Misses     uint64
	MSHRStalls uint64
}

// IFetchStats returns the instruction-side counters.
func (h *Hierarchy) IFetchStats() IStats { return h.istats }

// IFetch runs one instruction-line fetch at cycle now. With no attached
// I-system it returns a single-cycle hit (the perfect-I-cache model every
// data-side experiment uses).
func (h *Hierarchy) IFetch(now uint64, pc mem.Addr) Result {
	if h.isys == nil {
		return Result{Done: now + 1}
	}
	h.istats.Fetches++
	line := mem.LineAddr(uint64(pc) >> 6)
	inL1, inBuf := h.isys.Contains(pc)
	if !inL1 && !inBuf {
		if _, already := h.ipending.readyAt(line); !already {
			if n, earliest := h.ipending.inflight(now); n >= iMSHRs {
				h.istats.MSHRStalls++
				return Result{Stall: true, RetryAt: earliest}
			}
		}
	}

	out := h.isys.Access(mem.Access{Addr: pc, PC: pc, Type: mem.IFetch})
	start := now
	if h.ibankBusy > start {
		start = h.ibankBusy
	}
	var done uint64
	switch {
	case out.L1Hit:
		done = start + uint64(h.cfg.L1HitLatency)
		h.ibankBusy = start + 1
	case out.SecondaryHit:
		done = start + uint64(h.cfg.L1HitLatency+h.cfg.SecondaryExtraLatency)
		h.ibankBusy = start + 2
	case out.BufferHit:
		done = start + uint64(h.cfg.L1HitLatency+h.cfg.BufferExtraLatency)
		h.ibankBusy = start + 1
	default:
		h.istats.Misses++
		done = h.missPath(start, mem.Access{Addr: pc, Type: mem.IFetch}, out)
		h.ipending.set(line, done)
		h.ibankBusy = start + 1
	}
	if ready, ok := h.ipending.readyAt(line); ok && ready > done {
		done = ready
	}
	for _, pf := range out.Prefetches {
		h.issueIPrefetch(now, pf)
	}
	return Result{Done: done}
}

// issueIPrefetch sends an instruction-side prefetch down the shared miss
// path if an I-MSHR is free.
func (h *Hierarchy) issueIPrefetch(now uint64, line mem.LineAddr) {
	if _, already := h.ipending.readyAt(line); already {
		return
	}
	if n, _ := h.ipending.inflight(now); n >= iMSHRs {
		h.stats.PrefetchesDropped++
		return
	}
	addr := mem.Addr(uint64(line) << 6)
	ready := h.missPath(now, mem.Access{Addr: addr, Type: mem.PrefetchRead}, assist.Outcome{})
	h.ipending.set(line, ready)
	h.stats.PrefetchesSent++
	h.isys.PrefetchArrived(line)
}
