package mem

import "testing"

func TestLineSetBasics(t *testing.T) {
	var s LineSet
	if s.Contains(0) {
		t.Error("empty set contains 0")
	}
	if s.TestAndSet(0) {
		t.Error("first TestAndSet(0) reported already-present")
	}
	if !s.TestAndSet(0) {
		t.Error("second TestAndSet(0) reported absent")
	}
	if !s.Contains(0) {
		t.Error("set lost line 0")
	}
	if s.Contains(1) {
		t.Error("set contains line 1, never inserted")
	}
}

func TestLineSetAcrossPages(t *testing.T) {
	var s LineSet
	// Neighboring lines, a same-page distant line, and far-apart pages,
	// including the top of the address space.
	lines := []LineAddr{0, 1, 63, 64, 1<<linePageBits - 1, 1 << linePageBits,
		1 << 30, 1<<30 + 1, 1 << 57}
	for _, l := range lines {
		if s.TestAndSet(l) {
			t.Errorf("line %#x reported present on first touch", uint64(l))
		}
	}
	for _, l := range lines {
		if !s.Contains(l) {
			t.Errorf("line %#x lost", uint64(l))
		}
	}
	// 0..65535 share a page; 65536 and 1<<30(+1) and 1<<57 add three more.
	if len(s.pages) != 4 {
		t.Errorf("Pages = %d, want 4", len(s.pages))
	}
}

func TestLineSetAgainstMap(t *testing.T) {
	// Differential test against the map implementation the set replaced.
	var s LineSet
	ref := map[LineAddr]struct{}{}
	x := uint64(0x9E3779B97F4A7C15)
	for i := 0; i < 20000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		// Mix dense (low) and sparse (high) lines.
		line := LineAddr(x % 4096)
		if i%3 == 0 {
			line = LineAddr(x >> 20)
		}
		_, seen := ref[line]
		ref[line] = struct{}{}
		if got := s.TestAndSet(line); got != seen {
			t.Fatalf("TestAndSet(%#x) = %v, map says %v", uint64(line), got, seen)
		}
	}
	for line := range ref {
		if !s.Contains(line) {
			t.Errorf("Contains(%#x) = false, map holds it", uint64(line))
		}
	}
}

func TestLineSetSteadyStateAllocs(t *testing.T) {
	var s LineSet
	for i := LineAddr(0); i < 4096; i++ {
		s.TestAndSet(i)
	}
	avg := testing.AllocsPerRun(1000, func() {
		s.TestAndSet(1234)
		s.Contains(99)
	})
	if avg != 0 {
		t.Errorf("steady-state TestAndSet allocates %.1f allocs/op, want 0", avg)
	}
}
