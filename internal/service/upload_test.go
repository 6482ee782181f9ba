package service

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"net/http"
	"runtime"
	"testing"
	"time"

	"repro/internal/mem"
	"repro/internal/trace"
)

// buildTraceV2 encodes n load/store records in the fixed-stride v2 format
// with the count declared, over a bounded working set of lines so the
// classifier's state stops growing once warm.
func buildTraceV2(t testing.TB, n int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := trace.NewWriterV2(&buf, uint64(n))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		op := trace.Load
		if i%2 == 1 {
			op = trace.Store
		}
		if err := w.Write(trace.Instr{PC: 0x1000, Addr: mem.Addr((i % 2048) * 64), Op: op}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestClassifyUploadStreamsBeforeBodyComplete proves the upload path never
// buffers the request body: the response's first records must arrive while
// the client is still holding the rest of the trace back. A server that
// read the body to completion before classifying would block this test
// until the deadline.
func TestClassifyUploadStreamsBeforeBodyComplete(t *testing.T) {
	_, srv := newTestService(t, Config{})
	const total = 2000
	raw := buildTraceV2(t, total)
	// Enough records for a few full batches, held short of the declared
	// count so the server cannot have seen the whole body yet.
	firstChunk := headerV2Size(t, raw) + 600*recordStrideV2(t, raw)

	pr, pw := io.Pipe()
	defer pw.Close()
	req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/classify?size_kb=8&assoc=2&emit=all", pr)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/octet-stream")

	type result struct {
		lines int
		err   error
	}
	firstLine := make(chan error, 1)
	done := make(chan result, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			firstLine <- err
			return
		}
		defer resp.Body.Close()
		br := bufio.NewReader(resp.Body)
		_, err = br.ReadString('\n')
		firstLine <- err
		lines := 1
		for {
			if _, err := br.ReadString('\n'); err != nil {
				done <- result{lines, nil}
				return
			}
			lines++
		}
	}()

	if _, err := pw.Write(raw[:firstChunk]); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-firstLine:
		if err != nil {
			t.Fatalf("reading first response line: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no response line within 10s of a partial body: the upload is being buffered")
	}
	if _, err := pw.Write(raw[firstChunk:]); err != nil {
		t.Fatal(err)
	}
	pw.Close()
	select {
	case res := <-done:
		if res.lines != total+1 { // one line per access + summary
			t.Fatalf("got %d response lines, want %d", res.lines, total+1)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("response did not complete after the body was finished")
	}
}

// headerV2Size and recordStrideV2 recover the wire layout from a built
// trace rather than hard-coding constants the trace package owns: the
// header is everything before the first record of a zero-record trace.
func headerV2Size(t testing.TB, raw []byte) int {
	t.Helper()
	empty := buildTraceV2(t, 0)
	if len(empty) >= len(raw) {
		t.Fatal("trace has no records")
	}
	return len(empty)
}

func recordStrideV2(t testing.TB, raw []byte) int {
	t.Helper()
	one := buildTraceV2(t, 1)
	return len(one) - headerV2Size(t, one)
}

// TestClassifyUploadBoundedWork pins the upload classification's cost
// model: work and memory must be flat in the record count — a fixed setup
// cost (run state, one batch of scratch) and nothing per record. The
// allocation bound (well under one per record) is the "no per-record
// allocation" guarantee; the byte bound (a fraction of the body size)
// is the "never buffers the upload" guarantee, measured rather than
// inferred.
func TestClassifyUploadBoundedWork(t *testing.T) {
	const records = 50_000
	raw := buildTraceV2(t, records)
	spec := ClassifySpec{SizeKB: 8, Assoc: 2, Emit: EmitSummary}
	if err := spec.normalize(true, 0); err != nil {
		t.Fatal(err)
	}
	classifyOnce := func() {
		rd, err := trace.NewReaderContext(context.Background(), bytes.NewReader(raw), trace.Limits{})
		if err != nil {
			t.Fatal(err)
		}
		st, err := spec.stream(context.Background(), rd, func(any) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
		if st.Records != records {
			t.Fatalf("classified %d records, want %d", st.Records, records)
		}
	}
	classifyOnce() // warm any process-global state

	if avg := testing.AllocsPerRun(5, classifyOnce); avg > 2000 {
		t.Errorf("upload classification of %d records costs %.0f allocs/run; the per-record path is allocating", records, avg)
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	classifyOnce()
	runtime.ReadMemStats(&after)
	if d := after.TotalAlloc - before.TotalAlloc; d > uint64(len(raw))/2 {
		t.Errorf("upload classification allocated %d bytes for a %d-byte body; the body is being buffered", d, len(raw))
	}
}
