package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/obs"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestFig2QuickGolden pins the exact stdout of
// `paperbench -quick -experiment fig2` and of `-quick -experiment all`
// against committed golden files — a whole-pipeline regression net over
// the workload generators, the cache model, the MCT, the runner's ordered
// merge, and every experiment's report at once. Regenerate with:
// go test ./cmd/paperbench -run TestFig2QuickGolden -update
func TestFig2QuickGolden(t *testing.T) {
	for _, tc := range []struct{ experiment, golden string }{
		{"fig2", "fig2_quick.golden"},
		{"all", "all_quick.golden"},
	} {
		t.Run(tc.experiment, func(t *testing.T) {
			if tc.experiment == "all" && raceEnabled {
				// Under -race this one run outlasts the package's test
				// timeout in `make race`; `go test ./...` checks it.
				t.Skip("whole -quick run is too slow under the race detector")
			}
			var stdout, stderr bytes.Buffer
			code := paperbenchMain(
				[]string{"-quick", "-experiment", tc.experiment, "-cachedir", filepath.Join(t.TempDir(), "cache")},
				&stdout, &stderr)
			if code != 0 {
				t.Fatalf("exit code %d, stderr:\n%s", code, stderr.String())
			}

			golden := filepath.Join("testdata", tc.golden)
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, stdout.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("reading golden (run with -update to create): %v", err)
			}
			if !bytes.Equal(stdout.Bytes(), want) {
				t.Errorf("-quick -experiment %s output drifted from %s.\n--- got ---\n%s\n--- want ---\n%s",
					tc.experiment, golden, stdout.String(), want)
			}
		})
	}
}

// TestFig2CacheReplayIdentical runs the same invocation twice against one
// cache directory: the second run must hit the cache and produce
// byte-identical stdout — the memoized replay is indistinguishable from
// the computation.
func TestFig2CacheReplayIdentical(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	args := []string{"-quick", "-experiment", "fig2", "-cachedir", dir}

	var out1, err1 bytes.Buffer
	if code := paperbenchMain(args, &out1, &err1); code != 0 {
		t.Fatalf("first run exit %d:\n%s", code, err1.String())
	}
	if strings.Contains(err1.String(), "cached") {
		t.Fatal("first run must not hit the cache")
	}

	var out2, err2 bytes.Buffer
	if code := paperbenchMain(args, &out2, &err2); code != 0 {
		t.Fatalf("second run exit %d:\n%s", code, err2.String())
	}
	if !strings.Contains(err2.String(), "(fig2: cached)") {
		t.Fatalf("second run must hit the cache, stderr:\n%s", err2.String())
	}
	if !bytes.Equal(out1.Bytes(), out2.Bytes()) {
		t.Error("cached replay stdout differs from computed stdout")
	}
}

// TestNoCacheBypassesDisk verifies -nocache never reads or writes the
// cache directory.
func TestNoCacheBypassesDisk(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	var out, errB bytes.Buffer
	if code := paperbenchMain(
		[]string{"-quick", "-experiment", "fig2", "-nocache", "-cachedir", dir},
		&out, &errB); code != 0 {
		t.Fatalf("exit %d:\n%s", code, errB.String())
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Error("-nocache must not create the cache directory")
	}
	if strings.Contains(errB.String(), "cache:") {
		t.Error("-nocache must not report cache stats")
	}
}

// TestTraceOutWritesSpans runs a quick experiment with -trace-out and
// checks the NDJSON: every line is a span record, runner.task spans are
// present (one per sweep cell attempt), and they all share the
// configuration-derived default trace ID — and that stdout stays
// byte-identical to a run without tracing (observability must not leak
// into the artifacts).
func TestTraceOutWritesSpans(t *testing.T) {
	out := filepath.Join(t.TempDir(), "spans.ndjson")
	var traced, plain, errB bytes.Buffer
	args := []string{"-quick", "-experiment", "fig2", "-nocache"}
	if code := paperbenchMain(append(args, "-trace-out", out), &traced, &errB); code != 0 {
		t.Fatalf("exit %d:\n%s", code, errB.String())
	}
	if code := paperbenchMain(args, &plain, &errB); code != 0 {
		t.Fatalf("untraced run exit %d:\n%s", code, errB.String())
	}
	if !bytes.Equal(traced.Bytes(), plain.Bytes()) {
		t.Error("-trace-out changed stdout; tables must be byte-identical")
	}

	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var tasks int
	traces := map[string]bool{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var rec obs.SpanRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("trace line is not a span record: %v\n%s", err, sc.Text())
		}
		if rec.Name == "runner.task" {
			tasks++
		}
		traces[rec.Trace] = true
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if tasks == 0 {
		t.Error("no runner.task spans in trace output")
	}
	// All spans share the one configuration-derived trace ID.
	if len(traces) != 1 {
		t.Errorf("expected a single shared trace ID, got %v", traces)
	}
	for tr := range traces {
		if !strings.HasPrefix(tr, "paperbench-") {
			t.Errorf("span trace %q does not carry the run ID", tr)
		}
	}
}

// TestCSVWriteFailureExitsThroughReturn: a -csvdir that cannot be
// created fails the run with exit code 1 and the path on stderr, and
// returns through paperbenchMain rather than exiting the process, so the
// deferred cleanups still run — here, the -trace-out exporter's Close,
// which must leave a parseable span file behind.
func TestCSVWriteFailureExitsThroughReturn(t *testing.T) {
	dir := t.TempDir()
	notDir := filepath.Join(dir, "not-a-dir")
	if err := os.WriteFile(notDir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	spans := filepath.Join(dir, "spans.ndjson")
	var out, errB bytes.Buffer
	code := paperbenchMain([]string{"-quick", "-experiment", "fig2", "-nocache",
		"-csvdir", notDir, "-trace-out", spans}, &out, &errB)
	if code != 1 {
		t.Fatalf("exit code %d, want 1:\n%s", code, errB.String())
	}
	if !strings.Contains(errB.String(), notDir) {
		t.Errorf("stderr should name the CSV path %s:\n%s", notDir, errB.String())
	}
	raw, err := os.ReadFile(spans)
	if err != nil {
		t.Fatal(err)
	}
	var n int
	for _, line := range bytes.Split(bytes.TrimSpace(raw), []byte("\n")) {
		var rec obs.SpanRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("trace line is not a span record: %v\n%s", err, line)
		}
		n++
	}
	if n == 0 {
		t.Error("-trace-out file holds no spans; the exporter was not closed")
	}
}

// TestUnknownExperimentExitCode keeps the CLI contract: an unknown
// -experiment value is a usage error naming the valid selections, and a
// selection mixing valid and invalid names runs nothing rather than
// silently dropping the typo.
func TestUnknownExperimentExitCode(t *testing.T) {
	var out, errB bytes.Buffer
	if code := paperbenchMain([]string{"-experiment", "nonsense"}, &out, &errB); code != 2 {
		t.Fatalf("exit code %d, want 2", code)
	}
	if !strings.Contains(errB.String(), `unknown experiment "nonsense"`) {
		t.Errorf("missing diagnostic, stderr:\n%s", errB.String())
	}
	if !strings.Contains(errB.String(), "valid:") || !strings.Contains(errB.String(), "fig1") {
		t.Errorf("diagnostic must list the valid experiment names, stderr:\n%s", errB.String())
	}

	out.Reset()
	errB.Reset()
	if code := paperbenchMain([]string{"-quick", "-experiment", "fig2,nope"}, &out, &errB); code != 2 {
		t.Fatalf("mixed valid+invalid selection: exit code %d, want 2", code)
	}
	if out.Len() != 0 {
		t.Errorf("mixed selection must run nothing, but stdout has:\n%s", out.String())
	}
	if !strings.Contains(errB.String(), `unknown experiment "nope"`) {
		t.Errorf("missing diagnostic for the typo, stderr:\n%s", errB.String())
	}

	// -h is a usage exit whose -experiment help names every selection.
	out.Reset()
	errB.Reset()
	if code := paperbenchMain([]string{"-h"}, &out, &errB); code != 2 {
		t.Fatalf("-h: exit code %d, want 2", code)
	}
	for _, name := range experiments.SelectionNames() {
		if !strings.Contains(errB.String(), name) {
			t.Errorf("-h output does not name %q:\n%s", name, errB.String())
		}
	}
}
