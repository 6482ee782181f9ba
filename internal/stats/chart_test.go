package stats

import (
	"strings"
	"testing"
)

func TestBarChartRendering(t *testing.T) {
	c := NewBarChart("Demo", 20).SetBaseline(1.0)
	c.Add("alpha", 2.0).Add("beta", 1.0).Add("gamma", 0.5)
	out := c.String()
	if !strings.Contains(out, "Demo") {
		t.Error("missing title")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	// alpha's bar (the max) should be the longest.
	countHash := func(s string) int { return strings.Count(s, "#") }
	if !(countHash(lines[1]) > countHash(lines[2]) && countHash(lines[2]) > countHash(lines[3])) {
		t.Errorf("bar lengths not ordered:\n%s", out)
	}
	// The baseline marker appears in the short bar.
	if !strings.ContainsAny(lines[3], "|+") {
		t.Errorf("baseline marker missing from gamma:\n%s", out)
	}
	// Values printed.
	if !strings.Contains(out, "2.000") || !strings.Contains(out, "0.500") {
		t.Errorf("values missing:\n%s", out)
	}
}

func TestBarChartEmpty(t *testing.T) {
	if NewBarChart("x", 10).String() != "" {
		t.Error("empty chart should render empty")
	}
}

func TestBarChartDefaults(t *testing.T) {
	c := NewBarChart("", 0)
	c.Add("a", 3.0)
	out := c.String()
	if !strings.Contains(out, "3.000") {
		t.Errorf("default format not %%.3f:\n%s", out)
	}
	if strings.Count(out, "#") != 50 {
		t.Errorf("default width not 50:\n%q", out)
	}
}
