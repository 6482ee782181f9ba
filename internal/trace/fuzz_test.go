package trace

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/mem"
)

// validTrace encodes n synthetic instructions with the given declared
// header count, returning the raw bytes.
func validTrace(t testing.TB, declared uint64, n int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, declared)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		in := Instr{
			PC:   mem.Addr(0x1000 + 4*i),
			Addr: mem.Addr(0x8000 + 64*i),
			Op:   OpClass(i % 4),
			Dest: byte(i), Src1: byte(i + 1), Src2: byte(i + 2),
			Taken: i%3 == 0,
		}
		if err := w.Write(in); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// validTraceV2 encodes n synthetic instructions in the fixed-stride v2
// format with the given declared header count, returning the raw bytes.
func validTraceV2(t testing.TB, declared uint64, n int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriterV2(&buf, declared)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		in := Instr{
			PC:   mem.Addr(0x1000 + 4*i),
			Addr: mem.Addr(0x8000 + 64*i),
			Op:   OpClass(i % 4),
			Dest: byte(i), Src1: byte(i + 1), Src2: byte(i + 2),
			Taken: i%3 == 0,
		}
		if err := w.Write(in); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzReadTrace hammers the binary trace decoder with arbitrary bytes:
// malformed headers must be rejected by NewReader, truncated or trailing
// partial records must surface through Err, and no input may ever panic
// or let the reader mislabel a short trace as complete. When the input is
// well-formed, the decode must agree exactly with the format spec.
//
// Every accepted input is additionally decoded through the batch path and
// the mapped path: ReadBatch must reproduce the scalar decode record for
// record (including whether the trace ends in an error), and an image
// OpenMapped accepts must be one the streaming reader also decoded
// cleanly, with identical records.
func FuzzReadTrace(f *testing.F) {
	// Seed corpus: valid traces of both wire versions (counted and
	// uncounted), an empty trace, truncations on and off record
	// boundaries, bad magic/version/endianness/stride, a header promising
	// more than the body delivers, and a huge count.
	f.Add([]byte{})
	f.Add(validTrace(f, 0, 0))
	f.Add(validTrace(f, 0, 3))
	f.Add(validTrace(f, 3, 3))
	f.Add(validTrace(f, 5, 2)) // declared > actual: truncated
	f.Add(validTraceV2(f, 0, 3))
	f.Add(validTraceV2(f, 3, 3))
	f.Add(validTraceV2(f, 5, 2)) // v2 truncated below count
	full := validTrace(f, 0, 4)
	f.Add(full[:len(full)-7])             // partial trailing record
	f.Add(full[:headerSize+recordSizeV1]) // exactly one record
	f.Add(full[:headerSize-2])            // truncated header
	fullV2 := validTraceV2(f, 0, 4)
	f.Add(fullV2[:len(fullV2)-5])           // v2 partial trailing record
	f.Add(fullV2[:headerSize+recordSizeV2]) // exactly one v2 record
	bad := append([]byte(nil), full...)
	copy(bad[:4], "XXXX")
	f.Add(bad) // bad magic
	badv := append([]byte(nil), full...)
	badv[4] = 99
	f.Add(badv) // bad version
	bade := append([]byte(nil), fullV2...)
	bade[5] = 2
	f.Add(bade) // bad endianness marker
	bads := append([]byte(nil), fullV2...)
	bads[6] = 21
	f.Add(bads) // bad stride
	huge := append([]byte(nil), full...)
	binary.LittleEndian.PutUint64(huge[8:], 1<<60)
	f.Add(huge) // absurd declared count
	hugeV2 := append([]byte(nil), fullV2...)
	binary.LittleEndian.PutUint64(hugeV2[8:], 1<<60)
	f.Add(hugeV2) // absurd v2 declared count

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			// Header rejected: fine, as long as it did not panic. The
			// mapped opener must reject it too.
			if _, merr := OpenMapped(data, Limits{}); merr == nil {
				t.Fatal("OpenMapped accepted a header NewReader rejected")
			}
			return
		}
		stride := int(r.stride) // per-version record size the header chose
		body := len(data) - headerSize
		wantFull := body / stride // records actually present
		declared := r.Declared()

		var in Instr
		var recs []Instr
		for r.Next(&in) {
			recs = append(recs, in)
			if len(recs) > wantFull {
				t.Fatalf("decoded %d records from a body holding %d", len(recs), wantFull)
			}
		}
		if r.Next(&in) {
			t.Fatal("Next must keep returning false after exhaustion")
		}
		got := len(recs)

		switch {
		case declared == 0:
			if got != wantFull {
				t.Fatalf("uncounted trace: decoded %d of %d records", got, wantFull)
			}
			if body%stride != 0 && r.Err() == nil {
				t.Fatal("partial trailing record must surface through Err")
			}
			if body%stride == 0 && r.Err() != nil {
				t.Fatalf("clean uncounted trace errored: %v", r.Err())
			}
		case uint64(wantFull) >= declared:
			// Body holds at least the promised records: exactly declared
			// decode, cleanly.
			if uint64(got) != declared {
				t.Fatalf("counted trace: decoded %d, declared %d", got, declared)
			}
			if r.Err() != nil {
				t.Fatalf("complete counted trace errored: %v", r.Err())
			}
		default:
			// Truncated below the declared count: never silent.
			if r.Err() == nil {
				t.Fatalf("truncated counted trace (%d of %d) must error", got, declared)
			}
		}

		// Differential: the batch decoder over the same bytes must agree
		// with the scalar decode, record for record, including whether the
		// stream ended in an error. An awkward batch size exercises
		// mid-batch boundaries.
		rb, err := NewReader(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("NewReader accepted then rejected the same header: %v", err)
		}
		b := NewBatch(7)
		bGot := 0
		for {
			n := rb.ReadBatch(b, 7)
			if n == 0 {
				break
			}
			for i := 0; i < n; i++ {
				if bGot+i >= got || b.At(i) != recs[bGot+i] {
					t.Fatalf("ReadBatch record %d diverges from Next", bGot+i)
				}
			}
			bGot += n
		}
		if bGot != got {
			t.Fatalf("ReadBatch decoded %d records, Next decoded %d", bGot, got)
		}
		if (rb.Err() == nil) != (r.Err() == nil) {
			t.Fatalf("error disagreement: Next=%v, ReadBatch=%v", r.Err(), rb.Err())
		}

		// The mapped opener validates the whole image up front; it is
		// strictly stricter than the streaming reader (e.g. it rejects
		// trailing garbage after a satisfied count), so only acceptance
		// must imply scalar agreement.
		if m, merr := OpenMapped(data, Limits{}); merr == nil {
			if r.Err() != nil || m.Len() != got {
				t.Fatalf("OpenMapped accepted %d records where streaming decoded %d (err %v)",
					m.Len(), got, r.Err())
			}
			for i := 0; i < got; i++ {
				if m.At(i) != recs[i] {
					t.Fatalf("Mapped record %d diverges from Next", i)
				}
			}
		}
	})
}

// FuzzBatchRoundTrip is the v2-format counterpart of FuzzRoundTrip: a
// batch of fuzz-chosen records written through WriteBatch must transcode
// from v1 byte-identically and decode back bit-for-bit through ReadBatch
// (at an arbitrary batch size) and through the mapped random-access path.
func FuzzBatchRoundTrip(f *testing.F) {
	f.Add(uint64(0x1000), uint64(0x8000), byte(1), byte(2), byte(3), byte(4), true, uint8(5), uint8(3))
	f.Add(^uint64(0), ^uint64(0), byte(255), byte(0), byte(7), byte(9), false, uint8(255), uint8(0))
	f.Fuzz(func(t *testing.T, pc, addr uint64, op, dest, src1, src2 byte, taken bool, reps, chunk uint8) {
		n := int(reps)*2 + 1 // up to 511: crosses the default batch size
		want := NewBatch(n)
		for i := 0; i < n; i++ {
			want.Append(Instr{
				PC:   mem.Addr(pc + uint64(i)),
				Addr: mem.Addr(addr ^ uint64(i)<<6),
				Op:   OpClass(op),
				Dest: dest, Src1: src1, Src2: src2,
				Taken: taken != (i%2 == 1),
			})
		}

		var v1, v2 bytes.Buffer
		w1, err := NewWriter(&v1, uint64(n))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if err := w1.Write(want.At(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := w1.Flush(); err != nil {
			t.Fatal(err)
		}
		w2, err := NewWriterV2(&v2, uint64(n))
		if err != nil {
			t.Fatal(err)
		}
		if err := w2.WriteBatch(want); err != nil {
			t.Fatal(err)
		}
		if err := w2.Flush(); err != nil {
			t.Fatal(err)
		}

		// The legacy converter must land on exactly the bytes the v2
		// writer produces: one canonical fixed-stride encoding.
		var conv bytes.Buffer
		if _, err := Transcode(&conv, bytes.NewReader(v1.Bytes()), Limits{}); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(conv.Bytes(), v2.Bytes()) {
			t.Fatal("transcoded v1 differs from directly written v2")
		}

		r, err := NewReader(bytes.NewReader(v2.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		size := int(chunk)%300 + 1
		b := NewBatch(size)
		got := 0
		for {
			k := r.ReadBatch(b, size)
			if k == 0 {
				break
			}
			for i := 0; i < k; i++ {
				if b.At(i) != want.At(got+i) {
					t.Fatalf("record %d = %+v, want %+v", got+i, b.At(i), want.At(got+i))
				}
			}
			got += k
		}
		if got != n || r.Err() != nil {
			t.Fatalf("decoded %d of %d records (err %v)", got, n, r.Err())
		}

		m, err := OpenMapped(v2.Bytes(), Limits{})
		if err != nil {
			t.Fatal(err)
		}
		if m.Len() != n {
			t.Fatalf("mapped image holds %d records, want %d", m.Len(), n)
		}
		for i := 0; i < n; i++ {
			if m.At(i) != want.At(i) {
				t.Fatalf("mapped record %d = %+v, want %+v", i, m.At(i), want.At(i))
			}
		}
	})
}

// FuzzRoundTrip encodes fuzz-chosen instruction fields and requires the
// decode to reproduce them bit-for-bit — the write side and read side of
// binio.go must agree on the record layout forever.
func FuzzRoundTrip(f *testing.F) {
	f.Add(uint64(0x1000), uint64(0x8000), byte(1), byte(2), byte(3), byte(4), true, uint8(5))
	f.Add(^uint64(0), ^uint64(0), byte(255), byte(0), byte(7), byte(9), false, uint8(1))
	f.Fuzz(func(t *testing.T, pc, addr uint64, op, dest, src1, src2 byte, taken bool, reps uint8) {
		n := int(reps%8) + 1
		want := make([]Instr, n)
		for i := range want {
			want[i] = Instr{
				PC:   mem.Addr(pc + uint64(i)),
				Addr: mem.Addr(addr ^ uint64(i)<<6),
				Op:   OpClass(op),
				Dest: dest, Src1: src1, Src2: src2,
				Taken: taken != (i%2 == 1),
			}
		}
		var buf bytes.Buffer
		w, err := NewWriter(&buf, uint64(n))
		if err != nil {
			t.Fatal(err)
		}
		for _, in := range want {
			if err := w.Write(in); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		r, err := NewReader(&buf)
		if err != nil {
			t.Fatal(err)
		}
		var in Instr
		for i := range want {
			if !r.Next(&in) {
				t.Fatalf("record %d missing: %v", i, r.Err())
			}
			if in != want[i] {
				t.Fatalf("record %d = %+v, want %+v", i, in, want[i])
			}
		}
		if r.Next(&in) {
			t.Fatal("extra record decoded")
		}
		if r.Err() != nil {
			t.Fatal(r.Err())
		}
	})
}
