package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/mem"
	"repro/internal/trace"
)

// TestMRCSmoke is the end-to-end MRC exercise behind `make mrc-smoke`
// (run under -race): boot mctd, upload a generated v2 trace to /v1/mrc,
// and check the stream's invariants — ascending sizes, a monotone
// non-increasing miss-ratio curve, an MCT split that accounts for every
// miss — then confirm cold and warm responses are byte-identical on
// both the upload and spec paths.
func TestMRCSmoke(t *testing.T) {
	base, shutdown := bootMctd(t)
	defer shutdown()

	client := &http.Client{}
	defer client.CloseIdleConnections()

	// A trace with reuse at several scales, so the curve actually bends:
	// a hot 2KB stride loop interleaved with a 256KB working-set sweep.
	var buf bytes.Buffer
	const n = 30_000
	tw, err := trace.NewWriterV2(&buf, n)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		var a mem.Addr
		if i%2 == 0 {
			a = mem.Addr(i%32) * 64 // hot set: 32 lines
		} else {
			a = 1<<20 + mem.Addr(i%4096)*64 // 256KB sweep above 1MiB
		}
		op := trace.Load
		if i%7 == 0 {
			op = trace.Store
		}
		if err := tw.Write(trace.Instr{Op: op, Addr: a}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	upload := func() []byte {
		t.Helper()
		resp, err := client.Post(base+"/v1/mrc?sizes_kb=4,16,64&rate=0.5&assoc=2",
			"application/octet-stream", bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("upload status %d: %s", resp.StatusCode, body)
		}
		return body
	}
	cold := upload()
	checkMRCStream(t, cold, 3, n)
	if warm := upload(); !bytes.Equal(cold, warm) {
		t.Error("warm upload response differs from cold (memoized replay must be byte-identical)")
	}

	// Spec path: same contract without a trace body.
	spec := func() []byte {
		t.Helper()
		body := `{"workload":"gcc","accesses":20000,"sizes_kb":[4,8,32,128],"rate":1}`
		resp, err := client.Post(base+"/v1/mrc", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("spec status %d: %s", resp.StatusCode, out)
		}
		return out
	}
	coldSpec := spec()
	checkMRCStream(t, coldSpec, 4, 20000)
	if warm := spec(); !bytes.Equal(coldSpec, warm) {
		t.Error("warm spec response differs from cold")
	}

	m := scrape(t, client, base)
	if m["mct_mrc_requests_total"] < 4 {
		t.Errorf("mct_mrc_requests_total = %v, want >= 4", m["mct_mrc_requests_total"])
	}
	if m["mct_records_total"] <= 0 {
		t.Errorf("mct_records_total = %v, want > 0", m["mct_records_total"])
	}
}

// checkMRCStream parses an NDJSON MRC response and asserts the stream
// invariants: wantPoints points in ascending size order, miss ratios in
// [0,1] and non-increasing with size, and at every size an MCT split
// whose conflict+capacity+compulsory equals its misses and whose misses
// do not exceed the access count.
func checkMRCStream(t *testing.T, body []byte, wantPoints int, accesses uint64) {
	t.Helper()
	type rec struct {
		Point *struct {
			SizeKB    int     `json:"size_kb"`
			Lines     uint64  `json:"lines"`
			MissRatio float64 `json:"miss_ratio"`
			MCT       struct {
				Accesses   uint64 `json:"accesses"`
				Misses     uint64 `json:"misses"`
				Conflict   uint64 `json:"conflict"`
				Capacity   uint64 `json:"capacity"`
				Compulsory uint64 `json:"compulsory"`
			} `json:"mct"`
		} `json:"point"`
		Summary *struct {
			Points int `json:"points"`
		} `json:"summary"`
	}
	var points []rec
	var summaries int
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var r rec
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		switch {
		case r.Point != nil:
			points = append(points, r)
		case r.Summary != nil:
			summaries++
			if r.Summary.Points != wantPoints {
				t.Errorf("summary.points = %d, want %d", r.Summary.Points, wantPoints)
			}
		default:
			t.Errorf("record is neither point nor summary: %s", sc.Text())
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(points) != wantPoints || summaries != 1 {
		t.Fatalf("stream has %d points and %d summaries, want %d and 1", len(points), summaries, wantPoints)
	}
	for i, r := range points {
		p := r.Point
		ctx := fmt.Sprintf("point %d (%dKB)", i, p.SizeKB)
		if p.MissRatio < 0 || p.MissRatio > 1 {
			t.Errorf("%s: miss ratio %v out of [0,1]", ctx, p.MissRatio)
		}
		if i > 0 {
			prev := points[i-1].Point
			if p.SizeKB <= prev.SizeKB {
				t.Errorf("%s: sizes not ascending (prev %dKB)", ctx, prev.SizeKB)
			}
			if p.MissRatio > prev.MissRatio+1e-12 {
				t.Errorf("%s: sampled MRC not monotone: %v after %v", ctx, p.MissRatio, prev.MissRatio)
			}
		}
		m := p.MCT
		if m.Conflict+m.Capacity+m.Compulsory != m.Misses {
			t.Errorf("%s: split %d+%d+%d != misses %d", ctx, m.Conflict, m.Capacity, m.Compulsory, m.Misses)
		}
		if m.Misses > m.Accesses {
			t.Errorf("%s: misses %d exceed accesses %d", ctx, m.Misses, m.Accesses)
		}
		if m.Accesses != accesses {
			t.Errorf("%s: accesses %d, want %d", ctx, m.Accesses, accesses)
		}
	}
}
