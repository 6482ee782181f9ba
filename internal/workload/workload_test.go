package workload

import (
	"testing"

	"repro/internal/trace"
)

func TestSuiteRegistry(t *testing.T) {
	s := Suite()
	if len(s) != 16 {
		t.Fatalf("suite has %d benchmarks, want 16", len(s))
	}
	seen := map[string]bool{}
	for _, b := range s {
		if b.Name == "" || b.Description == "" || b.Build == nil {
			t.Errorf("benchmark %q incompletely defined", b.Name)
		}
		if seen[b.Name] {
			t.Errorf("duplicate benchmark %q", b.Name)
		}
		seen[b.Name] = true
	}
	// Sorted by name.
	for i := 1; i < len(s); i++ {
		if s[i-1].Name >= s[i].Name {
			t.Error("Suite() not sorted")
			break
		}
	}
}

func TestCarriedSubset(t *testing.T) {
	c := Carried()
	if len(c) != 10 {
		t.Fatalf("carried suite has %d, want 10", len(c))
	}
	for _, b := range c {
		if b == nil {
			t.Fatal("carried entry missing from registry")
		}
		if got, ok := ByName(b.Name); !ok || got != b {
			t.Errorf("carried benchmark %q not resolvable", b.Name)
		}
	}
	// The paper's headline benchmark must be carried.
	for _, name := range []string{"tomcatv", "swim", "turb3d"} {
		found := false
		for _, b := range c {
			found = found || b.Name == name
		}
		if !found {
			t.Errorf("%s missing from carried suite", name)
		}
	}
}

func TestByNameAndNames(t *testing.T) {
	if _, ok := ByName("tomcatv"); !ok {
		t.Error("tomcatv missing")
	}
	if _, ok := ByName("doom"); ok {
		t.Error("nonexistent benchmark found")
	}
	if len(Names()) != len(Suite()) {
		t.Error("Names/Suite length mismatch")
	}
}

func TestStreamsAreDeterministic(t *testing.T) {
	for _, b := range Suite() {
		s1 := trace.NewLimit(b.Stream(1234), 5000)
		s2 := trace.NewLimit(b.Stream(1234), 5000)
		var i1, i2 trace.Instr
		for n := 0; ; n++ {
			ok1, ok2 := s1.Next(&i1), s2.Next(&i2)
			if ok1 != ok2 {
				t.Fatalf("%s: streams desynced at %d", b.Name, n)
			}
			if !ok1 {
				break
			}
			if i1 != i2 {
				t.Fatalf("%s: instruction %d differs: %+v vs %+v", b.Name, n, i1, i2)
			}
		}
	}
}

func TestDistinctSeedsDiffer(t *testing.T) {
	b, _ := ByName("gcc")
	a1 := trace.Drain(trace.NewLimit(b.Stream(1), 2000))
	a2 := trace.Drain(trace.NewLimit(b.Stream(2), 2000))
	same := 0
	for i := range a1 {
		if a1[i] == a2[i] {
			same++
		}
	}
	if same == len(a1) {
		t.Error("different seeds produced identical streams")
	}
}

func TestStreamsShareNothing(t *testing.T) {
	// Two streams of the same benchmark must not share kernel state:
	// draining one must not perturb the other.
	b, _ := ByName("tomcatv")
	s1 := b.Stream(9)
	ref := trace.Drain(trace.NewLimit(b.Stream(9), 1000))
	trace.Drain(trace.NewLimit(s1, 500)) // advance s1 arbitrarily
	s2 := b.Stream(9)
	got := trace.Drain(trace.NewLimit(s2, 1000))
	for i := range ref {
		if ref[i] != got[i] {
			t.Fatal("streams share mutable kernel state")
		}
	}
}

func TestInstructionMixSanity(t *testing.T) {
	for _, b := range Suite() {
		var counts [trace.NumOpClasses]uint64
		var total uint64
		for _, in := range trace.Drain(trace.NewLimit(b.Stream(DefaultSeed), 40_000)) {
			counts[in.Op]++
			total++
		}
		memOps := counts[trace.Load] + counts[trace.Store]
		branches := counts[trace.Branch]
		fp := counts[trace.FPOp] + counts[trace.FPDiv]
		memFrac := float64(memOps) / float64(total)
		if memFrac < 0.10 || memFrac > 0.60 {
			t.Errorf("%s: memory fraction %.2f outside [0.10, 0.60]", b.Name, memFrac)
		}
		if branches == 0 {
			t.Errorf("%s: no branches", b.Name)
		}
		if counts[trace.Load] == 0 || counts[trace.Store] == 0 {
			t.Errorf("%s: missing loads or stores", b.Name)
		}
		if b.FP && fp == 0 {
			t.Errorf("%s: FP benchmark without FP ops", b.Name)
		}
		if !b.FP && fp > total/10 {
			t.Errorf("%s: integer benchmark with %d FP ops", b.Name, fp)
		}
	}
}

func TestRegistersStayInRange(t *testing.T) {
	for _, b := range Suite() {
		s := trace.NewLimit(b.Stream(DefaultSeed), 20_000)
		var in trace.Instr
		for s.Next(&in) {
			if in.Dest >= trace.NumRegs || in.Src1 >= trace.NumRegs || in.Src2 >= trace.NumRegs {
				t.Fatalf("%s: register out of range: %+v", b.Name, in)
			}
			if in.Op.IsMem() && in.Addr == 0 {
				t.Fatalf("%s: memory op with zero address", b.Name)
			}
		}
	}
}

func TestPCsFallInCodeSegment(t *testing.T) {
	b, _ := ByName("swim")
	s := trace.NewLimit(b.Stream(DefaultSeed), 10_000)
	var in trace.Instr
	for s.Next(&in) {
		if in.PC < codeBase || in.PC > codeBase+0x100000 {
			t.Fatalf("PC %#x outside code segment", in.PC)
		}
	}
}

func TestRegionHelpers(t *testing.T) {
	r := Region{Base: 0x1000, Size: 4 * 64}
	if r.LineCount() != 4 {
		t.Errorf("LineCount = %d", r.LineCount())
	}
	if r.LineAddr(0) != 0x1000 || r.LineAddr(3) != 0x10c0 {
		t.Error("LineAddr wrong")
	}
	if r.LineAddr(4) != 0x1000 {
		t.Error("LineAddr should wrap")
	}
}

func TestAliasGroupSeparation(t *testing.T) {
	g := aliasGroup(0, 3, 64*kb, sepBoth)
	if len(g) != 3 {
		t.Fatalf("group size %d", len(g))
	}
	for i := 1; i < 3; i++ {
		if uint64(g[i].Base-g[i-1].Base) != sepBoth {
			t.Error("separation wrong")
		}
	}
	// sepBoth aliases in both cache sizes, sep16K only in 16KB.
	if sepBoth%0x4000 != 0 || sepBoth%0x10000 != 0 {
		t.Error("sepBoth must be a multiple of 64KB")
	}
	if sep16K%0x4000 != 0 || sep16K%0x10000 == 0 {
		t.Error("sep16K must be a multiple of 16KB but not 64KB")
	}
}

func TestBenchmarkPanicsOnBadPhases(t *testing.T) {
	b := &Benchmark{Name: "broken", Build: func() []Phase { return nil }}
	defer func() {
		if recover() == nil {
			t.Fatal("empty phase list should panic")
		}
	}()
	b.Stream(1)
}

func TestChainSetBounds(t *testing.T) {
	c := newChainSet(0)
	if c.n != 1 {
		t.Error("chain count should clamp to 1")
	}
	c = newChainSet(100)
	if c.n != 8 {
		t.Error("chain count should clamp to 8")
	}
	c = newChainSet(3)
	c.put(10)
	c.put(20)
	c.put(30)
	if c.get() != 10 {
		t.Error("chain rotation broken")
	}
}
