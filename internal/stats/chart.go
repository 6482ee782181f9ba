package stats

import (
	"fmt"
	"strings"
)

// BarChart renders labeled horizontal bars as text — the closest a
// terminal gets to the paper's figures. Bars scale to a shared maximum so
// relative magnitudes read directly; a baseline value (e.g. speedup 1.0)
// can be marked so bars visibly cross it.
type BarChart struct {
	title    string
	labels   []string
	values   []float64
	baseline float64
	hasBase  bool
	width    int
}

// NewBarChart creates a chart with the given title. Width is the maximum
// bar length in characters (default 50 if <= 0).
func NewBarChart(title string, width int) *BarChart {
	if width <= 0 {
		width = 50
	}
	return &BarChart{title: title, width: width}
}

// SetBaseline marks a reference value (drawn as '|' within each bar).
func (c *BarChart) SetBaseline(v float64) *BarChart {
	c.baseline = v
	c.hasBase = true
	return c
}

// Add appends one bar.
func (c *BarChart) Add(label string, value float64) *BarChart {
	c.labels = append(c.labels, label)
	c.values = append(c.values, value)
	return c
}

// String renders the chart.
func (c *BarChart) String() string {
	if len(c.values) == 0 {
		return ""
	}
	maxV := c.values[0]
	for _, v := range c.values {
		if v > maxV {
			maxV = v
		}
	}
	if c.hasBase && c.baseline > maxV {
		maxV = c.baseline
	}
	if maxV <= 0 {
		maxV = 1
	}
	labW := 0
	for _, l := range c.labels {
		if len(l) > labW {
			labW = len(l)
		}
	}
	var b strings.Builder
	if c.title != "" {
		fmt.Fprintf(&b, "%s\n", c.title)
	}
	basePos := -1
	if c.hasBase {
		basePos = int(c.baseline / maxV * float64(c.width))
	}
	for i, v := range c.values {
		n := int(v / maxV * float64(c.width))
		if n < 0 {
			n = 0
		}
		bar := []byte(strings.Repeat("#", n) + strings.Repeat(" ", c.width-n))
		if basePos >= 0 && basePos < len(bar) {
			if bar[basePos] == '#' {
				bar[basePos] = '+'
			} else {
				bar[basePos] = '|'
			}
		}
		fmt.Fprintf(&b, "  %-*s %s %.3f\n", labW, c.labels[i], string(bar), v)
	}
	return b.String()
}
