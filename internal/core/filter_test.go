package core

import "testing"

// TestFilterTruthTable pins the paper's four filter definitions exactly
// (DESIGN.md decision 3).
func TestFilterTruthTable(t *testing.T) {
	cases := []struct {
		f              Filter
		ff, ft, tf, tt bool // Eval(incoming, evicted) for FF, FT, TF, TT
	}{
		{NoFilter, true, true, true, true},
		{InConflict, false, true, false, true},
		{OutConflict, false, false, true, true},
		{AndConflict, false, false, false, true},
		{OrConflict, false, true, true, true},
	}
	for _, c := range cases {
		got := [4]bool{
			c.f.Eval(false, false), c.f.Eval(false, true),
			c.f.Eval(true, false), c.f.Eval(true, true),
		}
		want := [4]bool{c.ff, c.ft, c.tf, c.tt}
		if got != want {
			t.Errorf("%s truth table = %v, want %v", c.f, got, want)
		}
	}
}

func TestFilterNames(t *testing.T) {
	want := map[Filter]string{
		NoFilter:    "none",
		InConflict:  "in-conflict",
		OutConflict: "out-conflict",
		AndConflict: "and-conflict",
		OrConflict:  "or-conflict",
	}
	for f, name := range want {
		if f.String() != name {
			t.Errorf("%d.String() = %q, want %q", f, f.String(), name)
		}
	}
	if Filter(42).String() == "" {
		t.Error("unknown filter should still render")
	}
}

func TestParseFilterRoundTrip(t *testing.T) {
	for _, f := range append([]Filter{NoFilter}, Filters...) {
		got, err := ParseFilter(f.String())
		if err != nil || got != f {
			t.Errorf("ParseFilter(%q) = %v, %v", f.String(), got, err)
		}
	}
	if _, err := ParseFilter("bogus"); err == nil {
		t.Error("bogus filter should not parse")
	}
}

func TestFiltersOrder(t *testing.T) {
	// The paper presents in, out, and, or — Figure 4's bar order depends
	// on this.
	want := []Filter{InConflict, OutConflict, AndConflict, OrConflict}
	if len(Filters) != len(want) {
		t.Fatalf("Filters has %d entries", len(Filters))
	}
	for i := range want {
		if Filters[i] != want[i] {
			t.Errorf("Filters[%d] = %s", i, Filters[i])
		}
	}
}

// TestFilterBiasOrdering checks the paper's bias claim: or-conflict is the
// most liberal (matches whenever any other filter matches) and and-conflict
// the strictest.
func TestFilterBiasOrdering(t *testing.T) {
	for _, in := range []bool{false, true} {
		for _, ev := range []bool{false, true} {
			and := AndConflict.Eval(in, ev)
			or := OrConflict.Eval(in, ev)
			inF := InConflict.Eval(in, ev)
			outF := OutConflict.Eval(in, ev)
			if and && (!inF || !outF) {
				t.Errorf("and-conflict true must imply in and out (in=%v ev=%v)", in, ev)
			}
			if (inF || outF) && !or {
				t.Errorf("in/out true must imply or-conflict (in=%v ev=%v)", in, ev)
			}
		}
	}
}
