package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestRatio(t *testing.T) {
	if Ratio(1, 0) != 0 {
		t.Error("division by zero should yield 0")
	}
	if Ratio(3, 4) != 0.75 {
		t.Error("Ratio(3,4) != 0.75")
	}
}

func TestMeanAndGeoMean(t *testing.T) {
	if Mean(nil) != 0 || GeoMean(nil) != 0 {
		t.Error("empty slices should yield 0")
	}
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Errorf("Mean = %g", got)
	}
	if got := GeoMean([]float64{1, 4}); math.Abs(got-2) > 1e-12 {
		t.Errorf("GeoMean(1,4) = %g, want 2", got)
	}
	// GeoMean of identical values is that value.
	if got := GeoMean([]float64{1.05, 1.05, 1.05}); math.Abs(got-1.05) > 1e-12 {
		t.Errorf("GeoMean of constants = %g", got)
	}
	// Non-positive entries must not produce NaN.
	if got := GeoMean([]float64{0, 2}); math.IsNaN(got) || math.IsInf(got, 0) {
		t.Errorf("GeoMean with zero produced %g", got)
	}
}

func TestGeoMeanLeqMean(t *testing.T) {
	// AM-GM inequality as a property test over positive inputs.
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			v = math.Abs(v)
			if v > 1e-6 && v < 1e6 {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		return GeoMean(xs) <= Mean(xs)*(1+1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Demo", "name", "v1", "v2")
	tb.AddRow("alpha", "1.50", "2.25")
	tb.AddRow("b", "x") // short row padded
	out := tb.String()
	if !strings.Contains(out, "== Demo ==") {
		t.Error("missing title")
	}
	if !strings.Contains(out, "alpha") || !strings.Contains(out, "1.50") || !strings.Contains(out, "2.25") {
		t.Errorf("missing formatted cells:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Errorf("want 5 lines, got %d:\n%s", len(lines), out)
	}
	if tb.Rows() != 2 {
		t.Errorf("Rows = %d", tb.Rows())
	}
}

func TestTableAlignment(t *testing.T) {
	tb := NewTable("", "benchmark", "speedup")
	tb.AddRow("tomcatv", "1.325")
	tb.AddRow("go", "1.001")
	lines := strings.Split(strings.TrimRight(tb.String(), "\n"), "\n")
	// All rows should have equal rendered width.
	w := len(lines[0])
	for _, l := range lines {
		if len(l) != w {
			t.Errorf("ragged table:\n%s", tb.String())
			break
		}
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("T", "name", "v")
	tb.AddRow("plain", "1.5")
	tb.AddRow("with,comma", `quote"inside`)
	csv := tb.CSV()
	lines := strings.Split(strings.TrimRight(csv, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("csv lines = %d:\n%s", len(lines), csv)
	}
	if lines[0] != "name,v" {
		t.Errorf("header = %q", lines[0])
	}
	if lines[2] != `"with,comma","quote""inside"` {
		t.Errorf("quoting wrong: %q", lines[2])
	}
}
