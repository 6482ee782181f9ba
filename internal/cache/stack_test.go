package cache

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/mem"
	"repro/internal/mrc"
	"repro/internal/trace"
	"repro/internal/workload"
)

// faRef is a trivially-correct fully-associative LRU cache: a slice
// ordered MRU-first. It shares no code with LRUStack, so it is the
// independent reference the stack is checked against.
type faRef struct {
	capacity int
	lines    []mem.LineAddr
}

// reference performs one LRU reference and reports whether it hit.
func (r *faRef) reference(line mem.LineAddr) bool {
	for i, l := range r.lines {
		if l == line {
			r.lines = append([]mem.LineAddr{line}, append(r.lines[:i:i], r.lines[i+1:]...)...)
			return true
		}
	}
	r.lines = append([]mem.LineAddr{line}, r.lines...)
	if len(r.lines) > r.capacity {
		r.lines = r.lines[:r.capacity]
	}
	return false
}

func mustStack(t *testing.T, caps ...int) *LRUStack {
	t.Helper()
	s, err := NewLRUStack(caps)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestLRUStackMatchesFullyAssociative drives a stack and one slice LRU
// per region capacity with the same random references: the region each
// reference reports must be the first capacity whose cache hits, for
// ladders with one-line regions, gaps, and a single rung. The small line
// space keeps every region churning, so the hash table's backward-shift
// deletion runs on most references.
func TestLRUStackMatchesFullyAssociative(t *testing.T) {
	for _, caps := range [][]int{{1}, {64}, {1, 2, 3}, {1, 4, 5, 32}, {3, 17, 64, 65, 200}} {
		t.Run(fmt.Sprint(caps), func(t *testing.T) {
			s := mustStack(t, caps...)
			refs := make([]*faRef, len(caps))
			for k, c := range caps {
				refs[k] = &faRef{capacity: c}
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
					if refs[k].reference(line) {
						want = k
					}
				}
				if got := s.Reference(line); got != want {
					t.Fatalf("step %d: Reference(%d) = region %d, fully-associative caches say %d", step, line, got, want)
				}
				if want := len(refs[len(refs)-1].lines); s.len != want {
					t.Fatalf("step %d: stack holds %d lines, want %d", step, s.len, want)
				}
			}
		})
	}
}

// TestFADifferential drives a one-capacity stack and the slice reference
// with the same random stream and demands identical observable state: the
// hit or miss of every reference, membership probes of the hash index,
// and — every 100 steps — the whole MRU..LRU order with each line's index
// entry pointing at its node. A line space much larger than the small
// capacities forces constant eviction, the guard on the hash table's
// backward-shift deletion.
func TestFADifferential(t *testing.T) {
	for _, capacity := range []int{1, 2, 3, 8, 64} {
		s := mustStack(t, capacity)
		ref := &faRef{capacity: capacity}
		x := uint64(12345)
		for step := 0; step < 50000; step++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			// Occasional huge lines exercise hash mixing of sparse bits.
			line := mem.LineAddr(x % 97)
			if x%31 == 0 {
				line = mem.LineAddr(x >> 8)
			}
			if x%5 == 4 {
				want := false
				for _, l := range ref.lines {
					want = want || l == line
				}
				if got := s.index.get(line) != faNil; got != want {
					t.Fatalf("cap %d step %d: index holds %d = %v, ref %v", capacity, step, line, got, want)
				}
				continue
			}
			if got, want := s.Reference(line) == 0, ref.reference(line); got != want {
				t.Fatalf("cap %d step %d: Reference(%d) hit = %v, ref %v", capacity, step, line, got, want)
			}
			if s.len != len(ref.lines) {
				t.Fatalf("cap %d step %d: stack holds %d lines, ref %d", capacity, step, s.len, len(ref.lines))
			}
			if step%100 != 0 {
				continue
			}
			var got []mem.LineAddr
			for i := s.head; i != faNil; i = s.nodes[i].next {
				if s.index.get(s.nodes[i].line) != i {
					t.Fatalf("cap %d step %d: index entry of line %d does not point at its node", capacity, step, s.nodes[i].line)
				}
				got = append(got, s.nodes[i].line)
			}
			if fmt.Sprint(got) != fmt.Sprint(ref.lines) {
				t.Fatalf("cap %d step %d: MRU..LRU = %v, ref %v", capacity, step, got, ref.lines)
			}
			if s.len > 0 && s.nodes[s.tail].line != ref.lines[len(ref.lines)-1] {
				t.Fatalf("cap %d step %d: LRU = %d, ref %v", capacity, step, s.nodes[s.tail].line, ref.lines)
			}
		}
	}
}

// The tests below check the stack against fixed expectations rather than
// a reference model. Reference answers K, the number of capacities, on a
// miss; a hit in region 0 means the line was within the first capacity.

func TestFAReferenceBasics(t *testing.T) {
	s := mustStack(t, 2)
	if s.Reference(1) != 1 {
		t.Fatal("cold reference should miss")
	}
	if s.Reference(1) != 0 {
		t.Fatal("repeat reference should hit")
	}
	s.Reference(2)
	s.Reference(3) // evicts 1 (LRU)
	if s.Reference(2) != 0 || s.Reference(3) != 0 {
		t.Error("2 and 3 should be resident")
	}
	if s.Reference(1) != 1 {
		t.Error("1 should have been evicted")
	}
}

func TestFALRUOrder(t *testing.T) {
	s := mustStack(t, 1, 2, 3)
	s.Reference(1)
	s.Reference(2)
	s.Reference(3)
	s.Reference(1) // MRU..LRU = 1 3 2
	if r := s.Reference(2); r != 2 {
		t.Errorf("LRU line 2 in region %d, want 2", r)
	}
	// Now 2 1 3: 3 is least recent, 1 second.
	if r := s.Reference(1); r != 1 {
		t.Errorf("line 1 in region %d, want 1", r)
	}
}

// TestFAInclusionProperty verifies the stack (inclusion) property of LRU:
// for the same reference stream, every hit in a smaller LRU cache is also
// a hit in a larger one. The classic conflict/capacity taxonomy depends on
// this property.
func TestFAInclusionProperty(t *testing.T) {
	f := func(refs []uint8) bool {
		small := mustStack(t, 4)
		large := mustStack(t, 16)
		for _, r := range refs {
			line := mem.LineAddr(r % 64)
			hitS := small.Reference(line) == 0
			hitL := large.Reference(line) == 0
			if hitS && !hitL {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestFAWorkingSetFitsNoEviction(t *testing.T) {
	f := mustStack(t, 64)
	// Cyclic references over 32 lines fit: after warmup, all hits.
	for pass := 0; pass < 3; pass++ {
		for i := 0; i < 32; i++ {
			hit := f.Reference(mem.LineAddr(i)) == 0
			if pass > 0 && !hit {
				t.Fatalf("pass %d line %d missed in fitting working set", pass, i)
			}
		}
	}
	// Cyclic references over 65 lines thrash: all misses in steady state.
	g := mustStack(t, 64)
	for pass := 0; pass < 3; pass++ {
		for i := 0; i < 65; i++ {
			hit := g.Reference(mem.LineAddr(i)) == 0
			if pass > 0 && hit {
				t.Fatalf("pass %d line %d hit in thrashing working set", pass, i)
			}
		}
	}
}

// TestFANeverExceedsCapacity is a property over arbitrary reference
// streams: the stack never holds more than its top capacity, and the
// recency list, the hash index and the line count agree.
func TestFANeverExceedsCapacity(t *testing.T) {
	f := func(refs []uint16) bool {
		s := mustStack(t, 2, 8)
		for _, r := range refs {
			s.Reference(mem.LineAddr(r & 0xff))
			if s.len > 8 {
				return false
			}
		}
		n := 0
		for i := s.head; i != faNil; i = s.nodes[i].next {
			if s.index.get(s.nodes[i].line) != i {
				return false
			}
			n++
		}
		return n == s.len
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestFAInsertLineZero pins that line 0 — the line of byte address 0 — is
// an ordinary line: the hash table marks empty slots by index, not by
// line, so line 0 must survive insertion and eviction undamaged.
func TestFAInsertLineZero(t *testing.T) {
	s := mustStack(t, 2)
	if s.Reference(0) != 1 {
		t.Fatal("cold line 0 should miss")
	}
	if s.Reference(0) != 0 {
		t.Fatal("line 0 not resident after insert")
	}
	s.Reference(7)
	s.Reference(9) // evicts line 0, now LRU
	if s.Reference(0) != 1 {
		t.Fatal("evicted line 0 should miss")
	}
	if s.Reference(0) != 0 {
		t.Fatal("re-inserted line 0 should hit")
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
