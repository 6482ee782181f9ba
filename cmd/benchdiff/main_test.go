package main

import (
	"strings"
	"testing"
)

var (
	p50    = metricBound{Name: "p50_ms", Better: "lower", Bound: 0.25}
	opsPer = metricBound{Name: "ops_per_s", Better: "higher", Bound: 0.25}
)

// around returns n samples spread evenly over [center-spread/2,
// center+spread/2]; with n=10 its nearest-rank quartiles are the 3rd and
// 8th samples.
func around(center, spread float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = center - spread/2 + spread*float64(i)/float64(n-1)
	}
	return out
}

func TestCompareRegressionAtTheBound(t *testing.T) {
	parentVals := around(100, 2, pairs)
	for _, c := range []struct {
		name   string
		m      metricBound
		change []float64
		want   string
	}{
		// The parent's nearest-rank median is its 5th sample, 99.89.
		{"lower just beyond", p50, around(99.89*1.26, 2, pairs), regression},
		{"lower just inside", p50, around(99.89*1.24, 2, pairs), noChange},
		{"higher just beyond", opsPer, around(99.89*0.74, 2, pairs), regression},
		{"higher just inside", opsPer, around(99.89*0.76, 2, pairs), noChange},
	} {
		got := compare(c.m, parentVals, c.change)
		if got.Verdict != c.want {
			t.Errorf("%s: verdict %q, want %q (%+v)", c.name, got.Verdict, c.want, got)
		}
	}
}

func TestCompareTiesCountForNeither(t *testing.T) {
	same := around(100, 2, pairs)
	for _, m := range []metricBound{p50, opsPer} {
		if got := compare(m, same, same); got.Wins != 0 || got.Verdict != noChange {
			t.Fatalf("%s, identical runs: %d wins, verdict %q; want 0 and %q", m.Name, got.Wins, got.Verdict, noChange)
		}
	}
	// Nine pairs tie and one is won: one win, and no gain.
	change := append([]float64(nil), same...)
	change[3] -= 0.5
	if got := compare(p50, same, change); got.Wins != 1 || got.Verdict != noChange {
		t.Fatalf("one pair won: %d wins, verdict %q; want 1 and %q", got.Wins, got.Verdict, noChange)
	}
}

func TestCompareWideParentSpread(t *testing.T) {
	// The parent's IQR (about 33% of its median) is wider than the bound.
	wide := around(100, 60, pairs)
	if got := compare(p50, wide, around(100, 60, pairs)); got.Verdict != unresolved {
		t.Errorf("wide parent spread: verdict %q, want %q", got.Verdict, unresolved)
	}
	// Every change run beats every parent run: the spread no longer hides
	// the difference, and it clears the parent's IQR.
	if got := compare(p50, wide, around(50, 10, pairs)); got.Verdict != gain || got.Wins != pairs {
		t.Errorf("clean sweep: %d wins, verdict %q; want %d and %q", got.Wins, got.Verdict, pairs, gain)
	}
	if got := compare(opsPer, wide, around(200, 10, pairs)); got.Verdict != gain {
		t.Errorf("clean sweep (higher is better): verdict %q, want %q", got.Verdict, gain)
	}
}

func TestCompareGainNeedsNineWinsAndTheIQR(t *testing.T) {
	parentVals := around(100, 4, pairs) // IQR 2.2
	better := around(95, 4, pairs)
	if got := compare(p50, parentVals, better); got.Verdict != gain || got.Wins != pairs {
		t.Fatalf("5%% faster every pair: %d wins, verdict %q; want %d and %q", got.Wins, got.Verdict, pairs, gain)
	}
	// Losing two pairs leaves 8/10 wins: no gain.
	lost := append([]float64(nil), better...)
	lost[0], lost[1] = 200, 200
	if got := compare(p50, parentVals, lost); got.Wins != 8 || got.Verdict != noChange {
		t.Fatalf("8 of 10 pairs: %d wins, verdict %q; want 8 and %q", got.Wins, got.Verdict, noChange)
	}
	// Winning every pair by less than the parent's IQR: no gain.
	slight := around(99, 4, pairs)
	if got := compare(p50, parentVals, slight); got.Wins != pairs || got.Verdict != noChange {
		t.Fatalf("inside the IQR: %d wins, verdict %q; want %d and %q", got.Wins, got.Verdict, pairs, noChange)
	}
}

func TestReportFailsOnRegressionOrFailureShare(t *testing.T) {
	mk := func(p50Val float64, failed int) []run {
		var rs []run
		for i := 0; i < pairs; i++ {
			rs = append(rs, run{Attempted: 100, Failed: failed, Digest: "d", Metrics: map[string]metric{"p50_ms": {p50Val}}})
		}
		return rs
	}
	for _, c := range []struct {
		name           string
		parent, change []run
		want           bool
		note           string
	}{
		{"equal", mk(10, 0), mk(10, 0), false, "digests equal: true"},
		{"regression", mk(10, 0), mk(20, 0), true, regression},
		{"more failures", mk(10, 0), mk(10, 1), true, "larger share"},
		{"same failure share", mk(10, 1), mk(10, 1), false, "parent failed 10/1000, change failed 10/1000"},
		{"fewer failures", mk(10, 1), mk(10, 0), false, "parent failed 10/1000, change failed 0/1000"},
	} {
		cfg := benchConfig{Workloads: []workload{{"w"}}, EndToEnd: []metricBound{p50}}
		out, failed := report(cfg, [][2][]run{{c.parent, c.change}})
		if failed != c.want || !strings.Contains(out, c.note) {
			t.Errorf("%s: failed = %v (want %v), output lacks %q?\n%s", c.name, failed, c.want, c.note, out)
		}
	}
}

func TestOrderAlternates(t *testing.T) {
	for pair := 0; pair < pairs; pair++ {
		got := order(pair)
		if got[0] == got[1] {
			t.Fatalf("pair %d runs one side twice: %v", pair, got)
		}
		if want := pair % 2; got[0] != want {
			t.Errorf("pair %d runs %s first, want %s", pair, sideNames[got[0]], sideNames[want])
		}
	}
}

func TestParseRun(t *testing.T) {
	// The last two lines of a perfbench run, cut down to the fields read.
	stdout := `{"workload":"paper-sim","seed":3,"seconds":20,"trace":false,"digest":"sha256:ab12","samples":96}
{"correct":true,"attempted":96,"failed":1,"metrics":{"ops_per_s":{"value":4.8,"unit":"ops/s"},"p50_ms":{"value":410.5,"unit":"ms"}}}
`
	r, err := parseRun([]byte(stdout), []metricBound{p50, opsPer})
	if err != nil {
		t.Fatal(err)
	}
	if r.Attempted != 96 || r.Failed != 1 || r.Digest != "sha256:ab12" ||
		r.Metrics["ops_per_s"].Value != 4.8 || r.Metrics["p50_ms"].Value != 410.5 {
		t.Fatalf("parsed %+v", r)
	}
	if _, err := parseRun([]byte(stdout), []metricBound{{Name: "setup_s"}}); err == nil {
		t.Error("a result line without a wanted metric parsed")
	}
	if _, err := parseRun([]byte(stdout[strings.Index(stdout, "\n")+1:]), nil); err == nil {
		t.Error("output without a report line parsed")
	}
}

func TestParseConfig(t *testing.T) {
	cfg, err := parseConfig([]byte(`{"command":["bash","perfbench/run.sh"],"run_seconds":20,
		"workloads":[{"name":"paper-sim"}],
		"end_to_end":[{"name":"p50_ms","unit":"ms","better":"lower","bound":0.25}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Command[1] != "perfbench/run.sh" || cfg.RunSeconds != 20 || cfg.Workloads[0].Name != "paper-sim" || cfg.EndToEnd[0] != p50 {
		t.Fatalf("parsed %+v", cfg)
	}
	if _, err := parseConfig([]byte(`{"command":["x"],"run_seconds":20,"workloads":[{"name":"w"}],
		"end_to_end":[{"name":"m","better":"sideways","bound":0.1}]}`)); err == nil {
		t.Error("a metric with no direction parsed")
	}
}
