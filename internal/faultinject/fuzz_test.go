package faultinject

import "testing"

// FuzzParse feeds arbitrary schedule specs to Parse: it must never panic,
// and it must return exactly one of a fault or an error.
func FuzzParse(f *testing.F) {
	for _, spec := range []string{
		"error:2", "error", "error:2@fig2", "hang@sim/gcc", "panic,error:1@fig1",
		"fatal@x, error:3", "", "  ,  ", "error:0", "error:x", "explode",
		"delay:25ms", "delay:25ms@sweep", "delay:1s@sweep/fig2, error:1",
		"delay", "delay:3", "delay:-5ms", "error:2@cell/1,fatal@cell/6",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		fault, err := Parse(spec)
		if (fault == nil) == (err == nil) {
			t.Fatalf("Parse(%q) = (fault %v, err %v): want exactly one", spec, fault != nil, err)
		}
	})
}

// FuzzParseNetSpec feeds arbitrary -chaos specs to ParseNetSpec: it must
// never panic, an accepted spec must carry every probability in [0, 1],
// and the accepted config's String rendering must parse back to the same
// probabilities and seed.
func FuzzParseNetSpec(f *testing.F) {
	for _, spec := range []string{
		"reset=0.05,latency=20ms,jitter=60ms,partial=0.2,bw=65536,blackhole=0.01,seed=7",
		"", "reset", "reset=2", "latency=fast", "wat=1", "bw=x", "reset=NaN",
		"reset=1,seed=3", "blackhole=1", "partial=1e-300,seed=0x10",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		c, err := ParseNetSpec(spec)
		if err != nil {
			return
		}
		for name, p := range map[string]float64{"reset": c.ResetProb, "partial": c.PartialProb, "blackhole": c.BlackholeProb} {
			if !(p >= 0 && p <= 1) {
				t.Fatalf("ParseNetSpec(%q) accepted %s=%v, outside [0,1]", spec, name, p)
			}
		}
		rt, err := ParseNetSpec(c.String())
		if err != nil {
			t.Fatalf("ParseNetSpec(%q).String() = %q does not parse: %v", spec, c.String(), err)
		}
		if rt.ResetProb != c.ResetProb || rt.PartialProb != c.PartialProb ||
			rt.BlackholeProb != c.BlackholeProb || rt.Seed != c.Seed {
			t.Fatalf("ParseNetSpec(%q) = %+v, but its String %q parses to %+v", spec, c, c.String(), rt)
		}
	})
}
