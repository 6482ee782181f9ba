package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/assist"
	"repro/internal/cache"
	"repro/internal/hier"
	"repro/internal/trace"
	"repro/internal/workload"
)

// geomFingerprintPath is the committed golden file. It was generated
// against the pre-pluggable-geometry cache (tag-per-line storage, modulo
// indexing hardwired), so the test proves the refactored modulo path is
// bit-identical to the seed behavior: same per-access classification
// verdicts and same end-to-end cycle counts, hashed.
const geomFingerprintPath = "testdata/geom_fingerprints.json"

// Set GEOM_FP_UPDATE=1 to regenerate the golden file instead of checking
// it. Only do this deliberately: rewriting the file forfeits the
// bit-identical-to-seed guarantee and re-baselines on current behavior.
func geomFPUpdating() bool { return os.Getenv("GEOM_FP_UPDATE") == "1" }

// fpWorkloads spans integer and FP flavors of the synthetic suite.
var fpWorkloads = []string{"compress", "gcc", "swim", "tomcatv", "vortex"}

// fpClassifyConfigs exercises direct-mapped, 2-way, small-line 4-way, and
// larger 2-way shapes through the classification pipeline.
var fpClassifyConfigs = []cache.Config{
	{Name: "L1D", Size: 16 << 10, LineSize: 64, Assoc: 1},
	{Name: "L1D", Size: 16 << 10, LineSize: 64, Assoc: 2},
	{Name: "L1D", Size: 8 << 10, LineSize: 32, Assoc: 4},
	{Name: "L1D", Size: 32 << 10, LineSize: 64, Assoc: 2},
}

// fpTimingConfigs are the end-to-end L1 shapes (the L2 and the rest of the
// hierarchy come from hier.DefaultConfig, with MSHRs varied).
var fpTimingConfigs = []cache.Config{
	{Name: "L1D", Size: 16 << 10, LineSize: 64, Assoc: 1},
	{Name: "L1D", Size: 16 << 10, LineSize: 64, Assoc: 2},
	{Name: "L1D", Size: 64 << 10, LineSize: 64, Assoc: 1},
	{Name: "L1D", Size: 64 << 10, LineSize: 64, Assoc: 2},
}

const fpTimingInstrs = 60_000

func sha256Hex(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// geomFingerprints computes the full fingerprint map: classification
// verdict-table hashes for every workload×shape×tagBits cell, and
// end-to-end timing hashes (full sim.Result rendering, cycles included)
// for every workload×shape×MSHR cell.
func geomFingerprints(t *testing.T) map[string]string {
	t.Helper()
	out := map[string]string{}

	for _, wl := range fpWorkloads {
		b, ok := workload.ByName(wl)
		if !ok {
			t.Fatalf("workload %q not registered", wl)
		}
		for _, cfg := range fpClassifyConfigs {
			for _, tagBits := range []int{0, 6} {
				key := fmt.Sprintf("classify/%s/%dKB-%dw-%dB/tag%d",
					wl, cfg.Size>>10, cfg.Assoc, cfg.LineSize, tagBits)
				ref := newScalarRef(t, cfg, tagBits)
				var table bytes.Buffer
				n := ref.replay(trace.NewLimit(b.Stream(workload.DefaultSeed), diffInstrs), &table)
				fmt.Fprintf(&table, "n=%d acc=%+v\n", n, ref.acc)
				out[key] = sha256Hex(table.Bytes())
			}
		}
		for _, cfg := range fpTimingConfigs {
			for _, mshrs := range []int{1, 16} {
				key := fmt.Sprintf("timing/%s/%dKB-%dw/mshr%d", wl, cfg.Size>>10, cfg.Assoc, mshrs)
				hc := hier.DefaultConfig()
				hc.MSHRs = mshrs
				r := Run(b, assist.MustNewBaseline(cfg, 0), Options{
					Instructions: fpTimingInstrs,
					Hier:         hc,
				})
				out[key] = sha256Hex([]byte(fmt.Sprintf("%+v", r)))
			}
		}
	}
	return out
}

// TestModuloGeometryFingerprintsMatchSeed is the PR-6-style multi-config
// differential: the modulo-indexed cache, now routed through the pluggable
// geometry layer with victim addresses stored in lines rather than
// recomputed from (tag, set), must reproduce the seed's classification
// verdicts and end-to-end timing bit for bit across 40 classification
// cells and 40 timing cells.
func TestModuloGeometryFingerprintsMatchSeed(t *testing.T) {
	matchFingerprints(t, geomFingerprintPath, geomFPUpdating(), "GEOM_FP_UPDATE=1", geomFingerprints(t))
}

// matchFingerprints checks got against the committed golden map at path:
// every recorded key must still be computed with the same hash, and no
// new key may appear unrecorded. With updating set it rewrites the file
// instead; updateHint names the switch that does so.
func matchFingerprints(t *testing.T, path string, updating bool, updateHint string, got map[string]string) {
	t.Helper()
	if updating {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s with %d fingerprints", path, len(got))
		return
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden fingerprints (regenerate with %s): %v", updateHint, err)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("parsing %s: %v", path, err)
	}

	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if got[k] == "" {
			t.Errorf("%s: fingerprint no longer computed", k)
			continue
		}
		if got[k] != want[k] {
			t.Errorf("%s: fingerprint %s differs from golden %s", k, got[k][:12], want[k][:12])
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			t.Errorf("%s: computed but missing from golden file (regenerate deliberately)", k)
		}
	}
}
