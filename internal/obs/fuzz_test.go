package obs

import (
	"bytes"
	"math"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// renderSamples writes parsed samples back as exposition lines, escaping
// label values the way the exposition format does.
func renderSamples(samples []Sample) string {
	esc := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	var b strings.Builder
	for _, s := range samples {
		b.WriteString(s.Name)
		if len(s.Labels) > 0 {
			keys := make([]string, 0, len(s.Labels))
			for k := range s.Labels {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			b.WriteByte('{')
			for i, k := range keys {
				if i > 0 {
					b.WriteByte(',')
				}
				b.WriteString(k + `="` + esc.Replace(s.Labels[k]) + `"`)
			}
			b.WriteByte('}')
		}
		b.WriteString(" " + strconv.FormatFloat(s.Value, 'g', -1, 64) + "\n")
	}
	return b.String()
}

// sameSample compares two samples, treating NaN values as equal.
func sameSample(a, b Sample) bool {
	if a.Name != b.Name || len(a.Labels) != len(b.Labels) {
		return false
	}
	for k, v := range a.Labels {
		if w, ok := b.Labels[k]; !ok || w != v {
			return false
		}
	}
	return a.Value == b.Value || (math.IsNaN(a.Value) && math.IsNaN(b.Value))
}

// FuzzParseProm feeds arbitrary text to the strict exposition parser: it
// must never panic, a rejected input yields no samples, and an accepted
// input's samples, rendered back as exposition lines, parse to the same
// samples.
func FuzzParseProm(f *testing.F) {
	r := NewRegistry()
	r.Counter("mct_jobs_accepted_total", "Jobs accepted.", func() float64 { return 42 })
	r.Gauge("mct_queue_inflight", "In-flight jobs.", func() float64 { return 3 })
	h := r.Histogram("mct_classify_duration_seconds", "Classify latency.", []float64{0.001, 0.01, 0.1})
	h.Observe(0.005)
	h.Observe(5)
	var exposition bytes.Buffer
	if err := r.WriteText(&exposition); err != nil {
		f.Fatal(err)
	}
	for _, text := range []string{
		exposition.String(),
		"hello world garbage\nmct_x_total 1\n",
		"# NOPE something\n",
		"mct_x_total notanumber\n",
		`mct_x_bucket{le="1 2` + "\n",
		`mct_x_bucket{le=1} 2` + "\n",
		"\n# HELP mct_x_total h\n# TYPE mct_x_total counter\n" + `mct_x_total{path="a\"b\\c"} 1` + "\n",
		`mct_y{a="x,y",b="\n"} NaN` + "\nmct_z +Inf\n",
	} {
		f.Add(text)
	}
	f.Fuzz(func(t *testing.T, text string) {
		samples, err := ParseProm(strings.NewReader(text))
		if err != nil {
			if samples != nil {
				t.Fatalf("ParseProm returned %d samples with error %v", len(samples), err)
			}
			return
		}
		again, err := ParseProm(strings.NewReader(renderSamples(samples)))
		if err != nil {
			t.Fatalf("re-rendered samples do not parse: %v\n%s", err, renderSamples(samples))
		}
		if len(again) != len(samples) {
			t.Fatalf("re-rendered %d samples parse to %d", len(samples), len(again))
		}
		for i := range samples {
			if !sameSample(samples[i], again[i]) {
				t.Fatalf("sample %d: %+v re-parses as %+v", i, samples[i], again[i])
			}
		}
	})
}
