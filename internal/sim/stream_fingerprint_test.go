package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"testing"

	"repro/internal/trace"
	"repro/internal/workload"
)

// streamFingerprintPath is the committed golden file for the workload
// generators. Each cell hashes every field of the first streamRecords
// records of one benchmark's instruction stream, or of its memory-only
// projection, so a generator speedup is checked byte for byte against the
// streams the generators produced when the file was recorded. The mem
// cells were recorded by filtering the full stream with trace.NewMemOnly
// and are replayed through workload's MemStream.
const streamFingerprintPath = "testdata/stream_fingerprints.json"

// Set STREAM_FP_UPDATE=1 to regenerate the golden file instead of checking
// it. Only do this deliberately: rewriting the file forfeits the
// byte-identical-stream guarantee and re-baselines on current behavior.
func streamFPUpdating() bool { return os.Getenv("STREAM_FP_UPDATE") == "1" }

// streamRecords is how many records each cell hashes: enough for every
// kernel of every benchmark to be scheduled many times over.
const streamRecords = 200_000

// streamSeeds are the seeds each benchmark is hashed at.
var streamSeeds = []uint64{workload.DefaultSeed, 1, 42}

// hashStream hashes every field of the first n records of s.
func hashStream(t *testing.T, s trace.Stream, n int) string {
	t.Helper()
	h := sha256.New()
	var rec [22]byte
	var in trace.Instr
	for i := 0; i < n; i++ {
		if !s.Next(&in) {
			t.Fatalf("stream ended after %d of %d records", i, n)
		}
		binary.LittleEndian.PutUint64(rec[0:], uint64(in.PC))
		rec[8], rec[9], rec[10], rec[11] = byte(in.Op), in.Dest, in.Src1, in.Src2
		binary.LittleEndian.PutUint64(rec[12:], uint64(in.Addr))
		rec[20], rec[21] = 0, 0
		if in.Taken {
			rec[20] = 1
		}
		h.Write(rec[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// streamFingerprints hashes every suite benchmark's full and memory-only
// streams at every seed.
func streamFingerprints(t *testing.T) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, b := range workload.Suite() {
		for _, seed := range streamSeeds {
			out[fmt.Sprintf("full/%s/%d", b.Name, seed)] = hashStream(t, b.Stream(seed), streamRecords)
			out[fmt.Sprintf("mem/%s/%d", b.Name, seed)] = hashStream(t, b.MemStream(seed), streamRecords)
		}
	}
	return out
}

// TestStreamFingerprintsMatchGolden pins every suite benchmark's
// instruction stream and memory-only access stream, at three seeds, to
// the committed hashes.
func TestStreamFingerprintsMatchGolden(t *testing.T) {
	matchFingerprints(t, streamFingerprintPath, streamFPUpdating(), "STREAM_FP_UPDATE=1", streamFingerprints(t))
}
