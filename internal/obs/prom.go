package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Metric naming convention (enforced at registration, documented in
// DESIGN.md §9):
//
//   - every metric is snake_case under the "mct_" namespace:
//     ^mct_[a-z0-9]+(_[a-z0-9]+)*$ — no capitals, no double or
//     trailing underscores;
//   - counters (monotonic) end in "_total";
//   - gauges (point-in-time) do NOT end in "_total";
//   - histograms end in a unit suffix: "_seconds", "_bytes", or
//     "_size" (the exposition appends _bucket/_sum/_count itself).
//
// Registration panics on violations: a misnamed metric is a programming
// error that must fail the first test that constructs the service, not
// ship and then get renamed (a breaking change for scrapers).

var nameRE = regexp.MustCompile(`^mct_[a-z0-9]+(_[a-z0-9]+)*$`)

// MetricKind classifies a registered metric for the naming check and
// the exposition's TYPE line.
type MetricKind string

const (
	KindCounter   MetricKind = "counter"
	KindGauge     MetricKind = "gauge"
	KindHistogram MetricKind = "histogram"
)

// CheckMetricName validates name against the repo's naming convention
// for the given kind. The zero return is the passing case.
func CheckMetricName(kind MetricKind, name string) error {
	if !nameRE.MatchString(name) {
		return fmt.Errorf("obs: metric %q does not match %s (snake_case under the mct_ namespace)", name, nameRE)
	}
	switch kind {
	case KindCounter:
		if !strings.HasSuffix(name, "_total") {
			return fmt.Errorf("obs: counter %q must end in _total", name)
		}
	case KindGauge:
		if strings.HasSuffix(name, "_total") {
			return fmt.Errorf("obs: gauge %q must not end in _total (reserved for counters)", name)
		}
	case KindHistogram:
		if !strings.HasSuffix(name, "_seconds") && !strings.HasSuffix(name, "_bytes") && !strings.HasSuffix(name, "_size") {
			return fmt.Errorf("obs: histogram %q must end in a unit suffix (_seconds, _bytes, or _size)", name)
		}
	default:
		return fmt.Errorf("obs: unknown metric kind %q", kind)
	}
	return nil
}

// promMetric is one registered exposition entry.
type promMetric struct {
	kind MetricKind
	name string
	help string
	read func() float64 // counters and gauges
	hist *Histogram     // histograms
}

// Registry holds a service instance's Prometheus-exposed metrics.
// Instances are independent — tests boot many services per process
// without colliding — and iteration order is registration order, so
// the exposition is deterministic.
type Registry struct {
	mu sync.Mutex
	ms []promMetric
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry { return &Registry{} }

func (r *Registry) add(m promMetric) {
	if err := CheckMetricName(m.kind, m.name); err != nil {
		panic(err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, ex := range r.ms {
		if ex.name == m.name {
			panic(fmt.Sprintf("obs: metric %q registered twice", m.name))
		}
	}
	r.ms = append(r.ms, m)
}

// Counter registers a monotonically non-decreasing metric read from
// read at exposition time (no double accounting — the source of truth
// stays wherever the counter already lives).
func (r *Registry) Counter(name, help string, read func() float64) {
	r.add(promMetric{kind: KindCounter, name: name, help: help, read: read})
}

// Gauge registers a point-in-time metric.
func (r *Registry) Gauge(name, help string, read func() float64) {
	r.add(promMetric{kind: KindGauge, name: name, help: help, read: read})
}

// Histogram creates, registers, and returns a fixed-bucket histogram.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	h := NewHistogram(name, help, bounds)
	r.add(promMetric{kind: KindHistogram, name: name, help: help, hist: h})
	return h
}

// Names returns the registered metric names mapped to their kinds (a
// map, so in no particular order) — the naming-convention test walks
// this.
func (r *Registry) Names() map[string]MetricKind {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]MetricKind, len(r.ms))
	for _, m := range r.ms {
		out[m.name] = m.kind
	}
	return out
}

// fmtValue renders a sample value the way Prometheus expects.
func fmtValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WriteText writes the registry in the Prometheus text exposition
// format (version 0.0.4): # HELP and # TYPE comments, then samples;
// histograms expand to cumulative _bucket series (with le labels, +Inf
// last), _sum, and _count.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	ms := make([]promMetric, len(r.ms))
	copy(ms, r.ms)
	r.mu.Unlock()

	bw := bufio.NewWriter(w)
	for _, m := range ms {
		fmt.Fprintf(bw, "# HELP %s %s\n", m.name, m.help)
		fmt.Fprintf(bw, "# TYPE %s %s\n", m.name, m.kind)
		if m.hist == nil {
			fmt.Fprintf(bw, "%s %s\n", m.name, fmtValue(m.read()))
			continue
		}
		snap := m.hist.Snapshot()
		var cum uint64
		for i, c := range snap {
			cum += c
			le := "+Inf"
			if i < len(m.hist.bounds) {
				le = fmtValue(m.hist.bounds[i])
			}
			fmt.Fprintf(bw, "%s_bucket{le=%q} %d\n", m.name, le, cum)
		}
		fmt.Fprintf(bw, "%s_sum %s\n", m.name, fmtValue(m.hist.Sum()))
		fmt.Fprintf(bw, "%s_count %d\n", m.name, cum)
	}
	return bw.Flush()
}

// Sample is one parsed exposition line: a metric name, its label set
// (only le is emitted by this package, but the parser is general), and
// the value.
type Sample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// sampleRE matches one exposition sample line: name, optional {labels},
// value. Labels are k="v" pairs; the parser below re-splits them.
var sampleRE = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})?\s+([^\s]+)$`)

// labelRE matches one k="v" pair inside a label set.
var labelRE = regexp.MustCompile(`^([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"$`)

// ParseProm parses a Prometheus text exposition strictly: every
// non-blank line must be a well-formed comment (# HELP / # TYPE) or a
// sample, else the parse fails naming the offending line. The obs-smoke
// gate uses this to assert the endpoint emits zero unparseable lines;
// cmd/mctload uses it to fold server-side histograms into its report.
func ParseProm(r io.Reader) ([]Sample, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var out []Sample
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) < 3 || (fields[1] != "HELP" && fields[1] != "TYPE") {
				return nil, fmt.Errorf("obs: line %d: malformed comment %q", lineno, line)
			}
			continue
		}
		m := sampleRE.FindStringSubmatch(line)
		if m == nil {
			return nil, fmt.Errorf("obs: line %d: unparseable sample %q", lineno, line)
		}
		s := Sample{Name: m[1]}
		if m[2] != "" {
			inner := strings.TrimSuffix(strings.TrimPrefix(m[2], "{"), "}")
			if inner != "" {
				s.Labels = map[string]string{}
				for _, pair := range splitLabels(inner) {
					lm := labelRE.FindStringSubmatch(strings.TrimSpace(pair))
					if lm == nil {
						return nil, fmt.Errorf("obs: line %d: malformed label %q", lineno, pair)
					}
					s.Labels[lm[1]] = unescapeLabel(lm[2])
				}
			}
		}
		v, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			return nil, fmt.Errorf("obs: line %d: value %q: %v", lineno, m[3], err)
		}
		s.Value = v
		out = append(out, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// splitLabels splits `a="x",b="y"` on commas outside quotes.
func splitLabels(s string) []string {
	var out []string
	depth := false // inside quotes
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			if depth {
				i++ // skip escaped char
			}
		case '"':
			depth = !depth
		case ',':
			if !depth {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	out = append(out, s[start:])
	return out
}

// unescapeLabel undoes the exposition's label escaping.
func unescapeLabel(s string) string {
	if !strings.Contains(s, `\`) {
		return s
	}
	r := strings.NewReplacer(`\\`, `\`, `\"`, `"`, `\n`, "\n")
	return r.Replace(s)
}

// HistogramsFromSamples reassembles histograms from parsed samples:
// every family with _bucket/_sum/_count series becomes one
// ParsedHistogram. Bucket order follows le ascending (+Inf last).
func HistogramsFromSamples(samples []Sample) []ParsedHistogram {
	type agg struct {
		buckets map[string]uint64
		sum     float64
		count   uint64
		seen    bool
	}
	fams := map[string]*agg{}
	get := func(base string) *agg {
		a := fams[base]
		if a == nil {
			a = &agg{buckets: map[string]uint64{}}
			fams[base] = a
		}
		return a
	}
	for _, s := range samples {
		switch {
		case strings.HasSuffix(s.Name, "_bucket"):
			base := strings.TrimSuffix(s.Name, "_bucket")
			a := get(base)
			a.buckets[s.Labels["le"]] = uint64(s.Value)
			a.seen = true
		case strings.HasSuffix(s.Name, "_sum"):
			a := get(strings.TrimSuffix(s.Name, "_sum"))
			a.sum = s.Value
		case strings.HasSuffix(s.Name, "_count"):
			a := get(strings.TrimSuffix(s.Name, "_count"))
			a.count = uint64(s.Value)
			a.seen = a.seen || len(a.buckets) > 0
		}
	}
	names := make([]string, 0, len(fams))
	for n, a := range fams {
		if a.seen {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	out := make([]ParsedHistogram, 0, len(names))
	for _, n := range names {
		a := fams[n]
		h := ParsedHistogram{Name: n, Sum: a.sum, Count: a.count}
		les := make([]string, 0, len(a.buckets))
		for le := range a.buckets {
			les = append(les, le)
		}
		sort.Slice(les, func(i, j int) bool { return leValue(les[i]) < leValue(les[j]) })
		for _, le := range les {
			h.Buckets = append(h.Buckets, ParsedBucket{LE: le, CumulativeCount: a.buckets[le]})
		}
		out = append(out, h)
	}
	return out
}

func leValue(le string) float64 {
	if le == "+Inf" {
		return math.Inf(1)
	}
	v, err := strconv.ParseFloat(le, 64)
	if err != nil {
		return math.MaxFloat64
	}
	return v
}

// ParsedHistogram is a histogram reassembled from an exposition scrape
// (cmd/mctload folds these into its BENCH report).
type ParsedHistogram struct {
	Name    string         `json:"name"`
	Count   uint64         `json:"count"`
	Sum     float64        `json:"sum"`
	Buckets []ParsedBucket `json:"buckets"`
}

// ParsedBucket is one cumulative bucket of a ParsedHistogram.
type ParsedBucket struct {
	LE              string `json:"le"`
	CumulativeCount uint64 `json:"n"`
}
