package sim

import (
	"encoding/binary"
	"fmt"
	"os"
	"reflect"
	"testing"

	"repro/internal/amb"
	"repro/internal/assist"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/exclude"
	"repro/internal/mem"
	"repro/internal/prefetch"
	"repro/internal/trace"
	"repro/internal/victim"
	"repro/internal/workload"
)

// assistFingerprintPath is the committed golden file for the functional
// assist systems. Each cell drives one system over one suite benchmark's
// memory stream and hashes every Outcome, every Contains probe, every
// PrefetchArrived verdict, the final Stats and the buffer's own counters,
// so any change to how a victim, prefetch, exclusion or AMB policy moves
// lines shows up as a changed hash.
const assistFingerprintPath = "testdata/assist_fingerprints.json"

// Set ASSIST_FP_UPDATE=1 to regenerate the golden file instead of checking
// it. Only do this deliberately: rewriting the file forfeits the
// identical-outcomes guarantee and re-baselines on current behavior.
func assistFPUpdating() bool { return os.Getenv("ASSIST_FP_UPDATE") == "1" }

// assistAccesses is how many memory accesses each cell replays.
const assistAccesses = 50_000

// assistSystems lists every assist configuration the experiments build,
// plus the variants the ablations and command-line tools reach: all five
// next-line filters with and without prefetch-on-hit, capacity exclusion
// without MCT seeding, and every AMB combination at both buffer sizes.
func assistSystems() map[string]func() assist.System {
	l1 := L1Config()
	icache := cache.Config{Name: "L1I", Size: 8 << 10, LineSize: 64, Assoc: 1}
	out := map[string]func() assist.System{
		"base":        func() assist.System { return assist.MustNewBaseline(l1, 0) },
		"icache-vc32": func() assist.System { return victim.MustNew(icache, 0, 32, victim.FilterSwapsPolicy) },
		"pf-rpt512":   func() assist.System { return prefetch.MustNewRPT(l1, 0, assist.DefaultEntries, 512) },
		"excl-cap-noseed": func() assist.System {
			s := exclude.MustNew(l1, 0, exclude.DefaultEntries, exclude.ModeCapacity)
			s.DisableSeeding()
			return s
		},
	}
	for _, pol := range []victim.Policy{victim.Traditional, victim.FilterSwapsPolicy, victim.FilterFillsPolicy, victim.FilterBothPolicy} {
		out[pol.Name()] = func() assist.System { return victim.MustNew(l1, 0, assist.DefaultEntries, pol) }
	}
	for _, f := range append([]core.Filter{core.NoFilter}, core.Filters...) {
		for _, onHit := range []bool{false, true} {
			pol := prefetch.Policy{Filter: f, PrefetchOnBufferHit: onHit}
			out[fmt.Sprintf("%s/onhit=%v", pol.Name(), onHit)] = func() assist.System {
				return prefetch.MustNew(l1, 0, assist.DefaultEntries, pol)
			}
		}
	}
	for _, m := range exclude.Modes {
		out[m.String()] = func() assist.System { return exclude.MustNew(l1, 0, exclude.DefaultEntries, m) }
	}
	for _, c := range amb.Combos {
		for _, entries := range []int{8, 16} {
			out[fmt.Sprintf("amb-%s/%d", c.Name(), entries)] = func() assist.System {
				return amb.MustNew(l1, 0, entries, c)
			}
		}
	}
	return out
}

// outcomeFields is the number of assist.Outcome fields appendOutcome
// encodes; a new field fails the test until the encoder covers it.
const outcomeFields = 9

// appendOutcome appends every field of out, and the two Contains bits
// probed before the access, to rec. A fixed binary record rather than %+v
// keeps the 592-cell corpus to a few seconds.
func appendOutcome(rec []byte, inL1, inBuf bool, out assist.Outcome) []byte {
	var flags uint16
	for i, bit := range [...]bool{inL1, inBuf, out.L1Hit, out.SecondaryHit, out.BufferHit, out.Swap, out.BufferFill, out.CacheFill, out.Writeback} {
		if bit {
			flags |= 1 << i
		}
	}
	rec = append(rec, byte(out.Class))
	rec = binary.LittleEndian.AppendUint16(rec, flags)
	rec = binary.LittleEndian.AppendUint16(rec, uint16(len(out.Prefetches)))
	for _, pf := range out.Prefetches {
		rec = binary.LittleEndian.AppendUint64(rec, uint64(pf))
	}
	return rec
}

// hashAssistRun replays accs through sys the way the timing hierarchy
// drives it: Contains before each access, then every returned prefetch
// delivered at once through PrefetchArrived.
func hashAssistRun(sys assist.System, accs []mem.Access) string {
	rec := make([]byte, 0, 8*len(accs))
	for _, acc := range accs {
		inL1, inBuf := sys.Contains(acc.Addr)
		out := sys.Access(acc)
		rec = appendOutcome(rec, inL1, inBuf, out)
		for _, pf := range out.Prefetches {
			landed := byte(0)
			if sys.PrefetchArrived(pf) {
				landed = 1
			}
			rec = append(rec, landed)
		}
	}
	rec = fmt.Appendf(rec, "stats=%+v", sys.Stats())
	if b, ok := sys.(interface{ Buffer() *assist.Buffer }); ok && b.Buffer() != nil {
		rec = fmt.Appendf(rec, "buffer=%+v", b.Buffer().Stats())
	}
	return sha256Hex(rec)
}

// assistFingerprints hashes every assist system over the first
// assistAccesses records of every suite benchmark's memory stream.
func assistFingerprints(t *testing.T) map[string]string {
	t.Helper()
	if n := reflect.TypeOf(assist.Outcome{}).NumField(); n != outcomeFields {
		t.Fatalf("assist.Outcome has %d fields; appendOutcome encodes %d", n, outcomeFields)
	}
	systems := assistSystems()
	out := map[string]string{}
	accs := make([]mem.Access, assistAccesses)
	for _, b := range workload.Suite() {
		s := b.MemStream(workload.DefaultSeed)
		var in trace.Instr
		for i := range accs {
			if !s.Next(&in) {
				t.Fatalf("%s: stream ended after %d of %d records", b.Name, i, len(accs))
			}
			typ := mem.Load
			if in.Op == trace.Store {
				typ = mem.Store
			}
			accs[i] = mem.Access{Addr: in.Addr, PC: in.PC, Type: typ}
		}
		for name, mk := range systems {
			out["assist/"+name+"/"+b.Name] = hashAssistRun(mk(), accs)
		}
	}
	return out
}

// TestAssistOutcomesMatchGolden pins the functional behavior of every
// assist policy, access by access, to the committed hashes.
func TestAssistOutcomesMatchGolden(t *testing.T) {
	matchFingerprints(t, assistFingerprintPath, assistFPUpdating(), "ASSIST_FP_UPDATE=1", assistFingerprints(t))
}
