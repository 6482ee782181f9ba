package prefetch

import (
	"fmt"

	"repro/internal/assist"
	"repro/internal/cache"
	"repro/internal/mem"
)

// rpt is Chen and Baer's reference prediction table: a PC-indexed table of
// (last address, stride, 2-bit state) entries that issues a prefetch for
// lastAddr+stride once a load settles into a steady stride. The paper
// examined it as the sophisticated alternative to next-line prefetching
// and found next-line gave higher coverage on its irregular applications;
// it is implemented here so that comparison can be reproduced (see the
// ablation bench) and to document the cost difference the paper stresses:
// the RPT is read and updated on every memory access, while the filtered
// next-line prefetcher touches its state only on misses. update is the
// engine's per-access hook, so its prediction rides on hits and misses
// alike.
type rpt struct {
	table []rptEntry
	mask  uint64
}

type rptState uint8

const (
	rptInitial rptState = iota
	rptTransient
	rptSteady
	rptNoPred
)

type rptEntry struct {
	tag      mem.Addr
	lastAddr mem.Addr
	stride   int64
	state    rptState
	valid    bool
}

// NewRPT builds the RPT system: an entries-deep buffer fed by a
// tableSize-entry table, where tableSize must be a positive power of two
// (Chen and Baer evaluate 512). A prefetched line hit in the buffer moves
// into the cache.
func NewRPT(cfg cache.Config, tagBits, entries, tableSize int) (*assist.Engine, error) {
	if tableSize <= 0 || tableSize&(tableSize-1) != 0 {
		return nil, fmt.Errorf("prefetch: RPT table size must be a positive power of two, got %d", tableSize)
	}
	r := &rpt{table: make([]rptEntry, tableSize), mask: uint64(tableSize - 1)}
	return assist.NewEngine("pf-rpt", cfg, tagBits, entries, assist.Policy{
		OnHit: [3]assist.HitAction{assist.OriginPrefetch: assist.Consume},
		Touch: r.update,
	})
}

// MustNewRPT is NewRPT that panics on error.
func MustNewRPT(cfg cache.Config, tagBits, entries, tableSize int) *assist.Engine {
	return assist.Must(NewRPT(cfg, tagBits, entries, tableSize))
}

// update advances the RPT entry for this access per the Chen–Baer state
// machine and returns a prefetch address when the entry is predicting.
func (r *rpt) update(acc mem.Access) (mem.Addr, bool) {
	idx := (uint64(acc.PC) >> 2) & r.mask
	e := &r.table[idx]
	if !e.valid || e.tag != acc.PC {
		*e = rptEntry{tag: acc.PC, lastAddr: acc.Addr, state: rptInitial, valid: true}
		return 0, false
	}
	stride := int64(acc.Addr) - int64(e.lastAddr)
	correct := stride == e.stride
	switch e.state {
	case rptInitial:
		if correct {
			e.state = rptSteady
		} else {
			e.stride = stride
			e.state = rptTransient
		}
	case rptTransient:
		if correct {
			e.state = rptSteady
		} else {
			e.stride = stride
			e.state = rptNoPred
		}
	case rptSteady:
		if !correct {
			e.state = rptInitial
		}
	case rptNoPred:
		if correct {
			e.state = rptTransient
		} else {
			e.stride = stride
		}
	}
	e.lastAddr = acc.Addr
	if e.state == rptSteady && e.stride != 0 {
		return mem.Addr(int64(acc.Addr) + e.stride), true
	}
	return 0, false
}
