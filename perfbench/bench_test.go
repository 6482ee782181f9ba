package main

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// runOnce runs the benchmark in process and decodes its two output lines.
func runOnce(t *testing.T, args ...string) (report, resultLine) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args = append([]string{"--workdir", t.TempDir(), "--seconds", "0.5"}, args...)
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("perfbench %s: exit %d: %s", strings.Join(args, " "), code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if len(lines) < 2 {
		t.Fatalf("perfbench printed %d lines, want a report and a result", len(lines))
	}
	var rep report
	var res resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-2]), &rep); err != nil {
		t.Fatalf("report line: %v", err)
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("result line: %v", err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("perfbench %s: correct=%v attempted=%d failed=%d errors=%v", strings.Join(args, " "), res.Correct, res.Attempted, res.Failed, rep.Errors)
	}
	return rep, res
}

// TestSameSeedSameWork checks that two runs with one seed do identical
// work: the same digest over every checked output and the same exact
// counts, and that a traced run reports those counts among its
// per-layer metrics. A different seed must change the inputs.
func TestSameSeedSameWork(t *testing.T) {
	for _, w := range workloadNames() {
		t.Run(w, func(t *testing.T) {
			a, resA := runOnce(t, "--workload", w, "--seed", "7")
			b, _ := runOnce(t, "--workload", w, "--seed", "7")
			if a.Digest == "" || a.Digest != b.Digest {
				t.Errorf("digests differ between same-seed runs: %q vs %q", a.Digest, b.Digest)
			}
			if !reflect.DeepEqual(a.Counts, b.Counts) {
				t.Errorf("exact counts differ between same-seed runs: %v vs %v", a.Counts, b.Counts)
			}
			for _, m := range endToEnd {
				if v, ok := resA.Metrics[m.name]; !ok || v.Value <= 0 || v.Unit != m.unit {
					t.Errorf("end-to-end metric %s = %+v, want a positive value in %s", m.name, v, m.unit)
				}
			}
			other, _ := runOnce(t, "--workload", w, "--seed", "8")
			if other.Digest == a.Digest {
				t.Errorf("seeds 7 and 8 gave the same digest %s", a.Digest)
			}

			_, tr := runOnce(t, "--workload", w, "--seed", "7", "--trace", "1")
			if len(tr.Metrics) != len(perLayer) {
				t.Errorf("traced run printed %d metrics, want the %d per-layer ones", len(tr.Metrics), len(perLayer))
			}
			for name, want := range a.Counts {
				if got := tr.Metrics[name].Value; got != want {
					t.Errorf("traced %s = %v, untraced report has %v", name, got, want)
				}
			}
		})
	}
}

// TestBadArguments checks that a malformed invocation fails without
// printing a result.
func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "paper-sim", "--trace", "2"},
		{"--workload", "paper-sim", "--seconds", "0"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
			t.Errorf("perfbench %v: exit %d, stdout %q; want a failure and no output", args, code, stdout.String())
		}
	}
}
