package cache

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/mem"
	"repro/internal/mrc"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestLRUStackMatchesFullyAssociative drives a stack and one
// FullyAssociative per region capacity with the same random references:
// the region each reference reports must be the first capacity whose
// cache hits, for ladders with one-line regions, gaps, and a single rung.
func TestLRUStackMatchesFullyAssociative(t *testing.T) {
	for _, caps := range [][]int{{1}, {64}, {1, 2, 3}, {1, 4, 5, 32}, {3, 17, 64, 65, 200}} {
		t.Run(fmt.Sprint(caps), func(t *testing.T) {
			s, err := NewLRUStack(caps)
			if err != nil {
				t.Fatal(err)
			}
			fas := make([]*FullyAssociative, len(caps))
			for k, c := range caps {
				fas[k] = NewFullyAssociative(c)
			}
			x := uint64(12345)
			for step := 0; step < 50000; step++ {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				// A line space a little over the largest capacity keeps
				// every region churning; rare huge lines test hash mixing.
				line := mem.LineAddr(x % uint64(caps[len(caps)-1]+caps[0]+7))
				if x%31 == 0 {
					line = mem.LineAddr(x >> 8)
				}
				want := len(caps)
				for k := len(caps) - 1; k >= 0; k-- {
					if fas[k].Reference(line) {
						want = k
					}
				}
				if got := s.Reference(line); got != want {
					t.Fatalf("step %d: Reference(%d) = region %d, fully-associative caches say %d", step, line, got, want)
				}
				if want := fas[len(fas)-1].Len(); s.Len() != want {
					t.Fatalf("step %d: Len = %d, want %d", step, s.Len(), want)
				}
			}
		})
	}
}

func TestNewLRUStackRejectsBadCapacities(t *testing.T) {
	for _, caps := range [][]int{nil, {0}, {-1, 4}, {4, 4}, {8, 4}} {
		if _, err := NewLRUStack(caps); err == nil {
			t.Errorf("NewLRUStack(%v) accepted", caps)
		}
	}
}

// TestLRUStackMatchesExactMRC cross-checks the stack against the other
// implementation of the same quantity: the mrc profiler in exact mode
// (rate 1, unbounded set) computes Mattson stack distances with a Fenwick
// tree, and its MissRatio(C)·N at a power-of-two capacity — an exact
// histogram bucket edge — must equal the number of references the stack
// reports outside the first C lines, on every suite benchmark.
func TestLRUStackMatchesExactMRC(t *testing.T) {
	const accesses = 60_000
	caps := make([]int, 11) // 16 .. 16384 lines
	for i := range caps {
		caps[i] = 16 << i
	}
	for bi, b := range workload.Suite() {
		s, err := NewLRUStack(caps)
		if err != nil {
			t.Fatal(err)
		}
		prof := mrc.New(mrc.Config{Rate: 1, MaxSampled: -1, LineSize: 64})
		misses := make([]uint64, len(caps))
		src := trace.NewLimit(b.MemStream(uint64(bi+1)), accesses)
		var in trace.Instr
		n := 0
		for src.Next(&in) {
			prof.Observe(in.Addr)
			r := s.Reference(mem.LineAddr(uint64(in.Addr) >> 6))
			for k := range caps {
				if r > k {
					misses[k]++
				}
			}
			n++
		}
		for k, c := range caps {
			want := math.Round(prof.MissRatio(uint64(c)) * float64(n))
			if float64(misses[k]) != want {
				t.Errorf("%s at %d lines: stack counts %d fully-associative misses, exact MRC %v of %d", b.Name, c, misses[k], want, n)
			}
		}
	}
}
