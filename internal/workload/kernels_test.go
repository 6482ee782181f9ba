package workload

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/rng"
	"repro/internal/trace"
)

// runBursts drives a kernel for n bursts and returns the emitted
// instructions.
func runBursts(k Kernel, n int, seed uint64) []trace.Instr {
	e := newEmitter(rng.New(seed), false)
	for i := 0; i < n; i++ {
		k.Burst(e)
	}
	return e.buf
}

func memAddrs(ins []trace.Instr) []mem.Addr {
	var out []mem.Addr
	for _, in := range ins {
		if in.Op.IsMem() {
			out = append(out, in.Addr)
		}
	}
	return out
}

func TestStridedSweepCoversRegionAndWraps(t *testing.T) {
	r := Region{Base: 0x1000, Size: 1024}
	k := NewStridedSweep("s", 0x100, r, 128, 4, 1, false, false)
	addrs := memAddrs(runBursts(k, 4, 1)) // 16 accesses, stride 128 over 1KB: wraps twice
	for i, a := range addrs {
		if a < r.Base || a >= r.Base+mem.Addr(r.Size) {
			t.Fatalf("access %d at %#x outside region", i, a)
		}
	}
	if addrs[0] != addrs[8] {
		t.Error("sweep should wrap to the region base")
	}
}

func TestStridedSweepStoreBack(t *testing.T) {
	k := NewStridedSweep("s", 0x100, Region{Base: 0x1000, Size: 4096}, 64, 4, 1, false, true)
	ins := runBursts(k, 2, 1)
	loads, stores := 0, 0
	for _, in := range ins {
		switch in.Op {
		case trace.Load:
			loads++
		case trace.Store:
			stores++
		}
	}
	if loads != stores || stores == 0 {
		t.Errorf("read-modify-write should pair loads and stores: %d/%d", loads, stores)
	}
}

func TestAliasPingPongAliasesAndRevisits(t *testing.T) {
	arrays := aliasGroup(0, 2, 64*kb, sepBoth)
	k := NewAliasPingPong("a", 0x100, arrays, 512, 3, 2, 0, false, false)
	addrs := memAddrs(runBursts(k, 1, 1))
	// One burst: 2 indices x 3 reps x 2 arrays = 12 accesses.
	if len(addrs) != 12 {
		t.Fatalf("accesses = %d", len(addrs))
	}
	geom := mem.MustGeometry(64, 256)
	// Per index, all accesses alias to one set; reps revisit the same pair.
	for i := 0; i < 12; i += 6 {
		set := geom.Set(addrs[i])
		for j := i; j < i+6; j++ {
			if geom.Set(addrs[j]) != set {
				t.Fatalf("access %d not aliased to its index's set", j)
			}
		}
		if addrs[i] != addrs[i+2] || addrs[i+1] != addrs[i+3] {
			t.Error("reps should revisit the same line pair")
		}
		if geom.Tag(addrs[i]) == geom.Tag(addrs[i+1]) {
			t.Error("arrays must differ in tag")
		}
	}
}

func TestAliasPingPongScrambledOrder(t *testing.T) {
	// Consecutive indices must not be adjacent lines (the wasted-prefetch
	// property): idx advances by 97 mod span.
	arrays := aliasGroup(0, 2, 64*kb, sepBoth)
	k := NewAliasPingPong("a", 0x100, arrays, 512, 2, 1, 0, false, false)
	a1 := memAddrs(runBursts(k, 1, 1))[0]
	a2 := memAddrs(runBursts(k, 1, 1))[0]
	if a2 == a1+64 {
		t.Error("scrambled index order should not visit adjacent lines consecutively")
	}
}

func TestPointerChaseFullCycleAndSerial(t *testing.T) {
	r := Region{Base: 0x10000, Size: 64 * 64} // 64 lines
	k := NewPointerChase("p", 0x100, r, 8, 0, false)
	ins := runBursts(k, 16, 1) // 128 hops over a 64-line cycle
	seen := map[mem.Addr]bool{}
	var prevDest uint8
	first := true
	for _, in := range ins {
		if in.Op != trace.Load {
			continue
		}
		seen[in.Addr&^0x3f] = true
		// Serial chain: the first load of each line pair depends on the
		// previous load's destination.
		if !first && in.Addr%128 == 0 {
			_ = prevDest
		}
		prevDest = in.Dest
		first = false
	}
	if len(seen) < 32 {
		t.Errorf("chase visited only %d of 64 lines", len(seen))
	}
}

func TestHotZipfSkew(t *testing.T) {
	r := Region{Base: 0x20000, Size: 1024 * 64}
	k := NewHotZipf("z", 0x100, r, 0.8, 8, 0.1, 0, false)
	addrs := memAddrs(runBursts(k, 200, 7))
	counts := map[mem.Addr]int{}
	for _, a := range addrs {
		counts[a&^0x3f]++
	}
	// The hottest line should be dramatically hotter than the median.
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if max < len(addrs)/20 {
		t.Errorf("no hot head: max line count %d of %d accesses", max, len(addrs))
	}
}

func TestStackChurnLocality(t *testing.T) {
	r := Region{Base: 0x30000, Size: 8 * kb}
	k := NewStackChurn("st", 0x100, r, 16, 128)
	addrs := memAddrs(runBursts(k, 100, 3))
	distinct := map[mem.Addr]bool{}
	for _, a := range addrs {
		distinct[a&^0x3f] = true
		if a < r.Base || a >= r.Base+mem.Addr(r.Size) {
			t.Fatalf("stack access %#x out of region", a)
		}
	}
	if len(distinct) > 40 {
		t.Errorf("stack churn touched %d lines; should be tightly local", len(distinct))
	}
}

func TestSeqScanIntraLineBurst(t *testing.T) {
	r := Region{Base: 0x40000, Size: 64 * kb}
	k := NewSeqScan("sc", 0x100, r, 4, 0, false, false)
	addrs := memAddrs(runBursts(k, 2, 1))
	// Two accesses per line: pairs share a line, consecutive pairs advance
	// one line.
	if len(addrs)%2 != 0 {
		t.Fatalf("odd access count %d", len(addrs))
	}
	g := mem.MustGeometry(64, 256)
	for i := 0; i < len(addrs); i += 2 {
		if g.Line(addrs[i]) != g.Line(addrs[i+1]) {
			t.Fatalf("pair %d not in one line", i/2)
		}
		if i > 0 && g.Line(addrs[i]) != g.Line(addrs[i-2])+1 {
			t.Fatalf("scan not sequential at pair %d", i/2)
		}
	}
}

func TestHotConflictWindowPingPong(t *testing.T) {
	arrays := aliasGroup(0, 2, 64*kb, sep16K)
	k := NewHotConflict("h", 0x100, arrays, 8, 5, 2, 8, 0, false)
	addrs := memAddrs(runBursts(k, 1, 1))
	// One burst: 2 passes x 8 indices x 2 arrays = 32 accesses; the two
	// passes repeat the same addresses.
	if len(addrs) != 32 {
		t.Fatalf("accesses = %d", len(addrs))
	}
	for i := 0; i < 16; i++ {
		if addrs[i] != addrs[i+16] {
			t.Fatalf("second pass should revisit the window (access %d)", i)
		}
	}
	// Window indices are spaced 5 lines apart: adjacent lines never touched.
	g := mem.MustGeometry(64, 256)
	if g.Line(addrs[2]) == g.Line(addrs[0])+1 {
		t.Error("window stride should skip adjacent lines")
	}
}

func TestHotConflictWindowDrifts(t *testing.T) {
	arrays := aliasGroup(0, 2, 64*kb, sep16K)
	k := NewHotConflict("h", 0x100, arrays, 8, 5, 2, 4, 0, false)
	first := memAddrs(runBursts(k, 1, 1))[0]
	// After Dwell bursts the window must advance.
	var later mem.Addr
	for i := 0; i < 4; i++ {
		later = memAddrs(runBursts(k, 1, 1))[0]
	}
	if later == first {
		t.Error("window never drifted")
	}
}

func TestBodiesRotateWithDwell(t *testing.T) {
	k := NewSeqScan("sc", 0x100000, Region{Base: 0x40000, Size: 64 * kb}, 4, 0, false, false)
	k.SetBodies(4)
	var pcs []mem.Addr
	for i := 0; i < bodyDwell*4+1; i++ {
		e := newEmitter(rng.New(1), false)
		k.Burst(e)
		pcs = append(pcs, e.buf[0].PC)
	}
	// Within a dwell run the body is stable; across runs it advances.
	for i := 1; i < bodyDwell; i++ {
		if pcs[i] != pcs[0] {
			t.Fatalf("body changed mid-dwell at burst %d", i)
		}
	}
	if pcs[bodyDwell] == pcs[0] {
		t.Error("body never rotated after dwell")
	}
	if pcs[bodyDwell]-pcs[0] != bodySpacing {
		t.Errorf("body spacing = %d, want %d", pcs[bodyDwell]-pcs[0], bodySpacing)
	}
	// Rotation wraps back to body 0.
	found := false
	for _, pc := range pcs[bodyDwell:] {
		if pc == pcs[0] {
			found = true
		}
	}
	if !found {
		t.Error("rotation never wrapped")
	}
}

func TestGatherScatterPairsLoadStore(t *testing.T) {
	r := Region{Base: 0x50000, Size: 256 * kb}
	k := NewGatherScatter("g", 0x100, r, 4, 1)
	ins := runBursts(k, 5, 9)
	for i, in := range ins {
		if in.Op == trace.Store {
			// The store's address must match a recent load (read-modify-write).
			foundLoad := false
			for j := i - 1; j >= 0 && j >= i-4; j-- {
				if ins[j].Op == trace.Load && ins[j].Addr == in.Addr {
					foundLoad = true
					break
				}
			}
			if !foundLoad {
				t.Fatalf("store %d at %#x without a preceding load", i, in.Addr)
			}
		}
	}
}
