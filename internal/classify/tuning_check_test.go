package classify_test

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/classify"
	"repro/internal/workload"
)

// TestSuiteClassificationShape is the tuning gate for the synthetic suite:
// on the paper's 16KB direct-mapped L1 every benchmark must classify with
// reasonable accuracy, and the suite overall must show the paper's
// worst-case bound (≥80% here; the paper reports 87%). It doubles as a
// smoke test that every benchmark generates, misses, and classifies.
func TestSuiteClassificationShape(t *testing.T) {
	if testing.Short() {
		t.Skip("suite sweep is slow")
	}
	cfg := cache.Config{Name: "L1D", Size: 16 * 1024, LineSize: 64, Assoc: 1}
	for _, b := range workload.Suite() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			r, err := classify.NewRun(cfg, 0)
			if err != nil {
				t.Fatal(err)
			}
			r.AccessBatch(memAccesses(b, workload.DefaultSeed, 400_000))
			acc := r.Acc
			st := r.Cache.Stats()
			t.Logf("%-9s missrate=%5.2f%% conflictShare=%5.1f%% confAcc=%5.1f%% capAcc=%5.1f%% overall=%5.1f%% (miss=%d)",
				b.Name, 100*st.MissRate(), 100*acc.ConflictShare(),
				100*acc.ConflictAccuracy(), 100*acc.CapacityAccuracy(),
				100*acc.OverallAccuracy(), acc.Misses())
			if acc.Misses() < 1000 {
				t.Errorf("%s: only %d misses in 400k accesses; workload too cache-friendly to classify", b.Name, acc.Misses())
			}
			if o := acc.OverallAccuracy(); o < 0.60 {
				t.Errorf("%s: overall accuracy %.1f%% implausibly low", b.Name, 100*o)
			}
		})
	}
}
