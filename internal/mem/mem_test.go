package mem

import (
	"testing"
	"testing/quick"
)

func TestNewGeometryValidation(t *testing.T) {
	cases := []struct {
		lineSize, sets int
		ok             bool
	}{
		{64, 256, true},
		{64, 1, true},
		{1, 1, true},
		{32, 128, true},
		{0, 256, false},
		{64, 0, false},
		{63, 256, false},
		{64, 255, false},
		{-64, 256, false},
		{64, -4, false},
	}
	for _, c := range cases {
		_, err := NewGeometry(c.lineSize, c.sets)
		if (err == nil) != c.ok {
			t.Errorf("NewGeometry(%d, %d): err=%v, want ok=%v", c.lineSize, c.sets, err, c.ok)
		}
	}
}

func TestMustGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustGeometry(63, 256) did not panic")
		}
	}()
	MustGeometry(63, 256)
}

func TestGeometryDecomposition16KBDM(t *testing.T) {
	// The paper's L1: 16KB direct-mapped, 64B lines -> 256 sets.
	g := MustGeometry(64, 256)
	if g.LineSize() != 64 || g.sets != 256 || g.LineShift() != 6 {
		t.Fatalf("geometry fields: lineSize=%d sets=%d shift=%d", g.LineSize(), g.sets, g.LineShift())
	}
	a := Addr(0x12345678)
	if got, want := g.Line(a), LineAddr(0x12345678>>6); got != want {
		t.Errorf("Line = %#x, want %#x", got, want)
	}
	if got, want := g.Set(a), (uint64(0x12345678)>>6)&0xff; got != want {
		t.Errorf("Set = %#x, want %#x", got, want)
	}
	if got, want := g.Tag(a), uint64(0x12345678)>>14; got != want {
		t.Errorf("Tag = %#x, want %#x", got, want)
	}
}

func TestLineBaseAndNextLine(t *testing.T) {
	g := MustGeometry(64, 256)
	for _, a := range []Addr{0, 1, 63, 64, 65, 0xfff, 0x10000} {
		base := g.LineBase(a)
		if base%64 != 0 {
			t.Errorf("LineBase(%#x) = %#x not line-aligned", a, base)
		}
		if base > a || a-base >= 64 {
			t.Errorf("LineBase(%#x) = %#x not covering address", a, base)
		}
		if got := g.NextLine(a); got != base+64 {
			t.Errorf("NextLine(%#x) = %#x, want %#x", a, got, base+64)
		}
	}
}

func TestTagOfLineMatchesTag(t *testing.T) {
	g := MustGeometry(64, 512)
	f := func(a Addr) bool {
		return g.TagOfLine(g.Line(a)) == g.Tag(a) &&
			g.SetOfLine(g.Line(a)) == g.Set(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSameLine(t *testing.T) {
	g := MustGeometry(64, 256)
	if g.Line(0x100) != g.Line(0x13f) {
		t.Error("0x100 and 0x13f should share a line")
	}
	if g.Line(0x13f) == g.Line(0x140) {
		t.Error("0x13f and 0x140 should not share a line")
	}
}

func TestAliasingAddressesShareSets(t *testing.T) {
	// Two addresses 16KB apart map to the same set of a 16KB DM cache but
	// different tags — the aliasing property the workload suite builds on.
	g := MustGeometry(64, 256)
	a, b := Addr(0x2000_0000), Addr(0x2000_4000)
	if g.Set(a) != g.Set(b) {
		t.Error("16KB-separated addresses should alias in a 16KB DM cache")
	}
	if g.Tag(a) == g.Tag(b) {
		t.Error("aliasing addresses must differ in tag")
	}
	// In a 64KB DM cache (1024 sets) they do NOT alias.
	g64 := MustGeometry(64, 1024)
	if g64.Set(a) == g64.Set(b) {
		t.Error("16KB-separated addresses should not alias in a 64KB DM cache")
	}
	// 256KB separation aliases in both.
	c := Addr(0x2004_0000)
	if g.Set(a) != g.Set(c) || g64.Set(a) != g64.Set(c) {
		t.Error("256KB-separated addresses should alias in both 16KB and 64KB caches")
	}
}

func TestAccessTypeProperties(t *testing.T) {
	names := map[AccessType]string{Load: "load", Store: "store", IFetch: "ifetch", PrefetchRead: "prefetch"}
	for at, want := range names {
		if at.String() != want {
			t.Errorf("%v.String() = %q, want %q", uint8(at), at.String(), want)
		}
	}
	if AccessType(99).String() == "" {
		t.Error("unknown access type should still render")
	}
}
