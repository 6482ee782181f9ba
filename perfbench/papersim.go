package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"
	"time"

	"repro/internal/amb"
	"repro/internal/assist"
	"repro/internal/cpu"
	"repro/internal/hier"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/victim"
	"repro/internal/workload"
)

// cellInstructions is the simulated length of one paper-sim cell.
const cellInstructions = 100_000

// systems are the three assist configurations each suite benchmark is
// paired with: the bare L1, the MCT-filtered victim cache, and the
// victim+prefetch adaptive miss buffer.
var systems = []struct {
	name string
	make func() assist.System
}{
	{"baseline", func() assist.System { return assist.MustNewBaseline(sim.L1Config(), 0) }},
	{"victim-filterswaps", func() assist.System {
		return victim.MustNew(sim.L1Config(), 0, assist.DefaultEntries, victim.FilterSwapsPolicy)
	}},
	{"amb-victpref", func() assist.System {
		return amb.MustNew(sim.L1Config(), 0, assist.DefaultEntries, amb.VictPref)
	}},
}

// cell is one (benchmark, system) simulation.
type cell struct {
	bench *workload.Benchmark
	bi    int // index into the suite, and into images
	sys   int
	seed  uint64
}

// paperSim runs sim.Run cells in process; one operation is one cell.
type paperSim struct {
	cells []cell
	ref   []sim.Result // each cell's statistics from the setup warm-up

	images [][]byte // per benchmark: its cell stream as a v2 trace image (traced runs only)
}

func newPaperSim(seed uint64) (*paperSim, error) {
	p := &paperSim{}
	for bi, b := range workload.Suite() {
		for si := range systems {
			p.cells = append(p.cells, cell{bench: b, bi: bi, sys: si, seed: deriveSeed(seed, "paper-sim", uint64(bi))})
		}
	}
	// The warm-up pass: every cell once, which is also the reference each
	// timed operation is checked against.
	p.ref = make([]sim.Result, len(p.cells))
	parallel(len(p.cells), func(i int) { p.ref[i] = p.simulate(i) })
	return p, nil
}

func (p *paperSim) simulate(i int) sim.Result {
	c := p.cells[i]
	return sim.Run(c.bench, systems[c.sys].make(), sim.Options{Instructions: cellInstructions, Seed: c.seed})
}

func (p *paperSim) passLen() int    { return len(p.cells) }
func (p *paperSim) close()          {}
func (p *paperSim) e2eSpan() string { return "sim.run" }

func (p *paperSim) run(o *op) (time.Duration, error) {
	var r sim.Result
	var lat time.Duration
	if o.tr == nil {
		t0 := time.Now()
		r = p.simulate(o.item)
		lat = time.Since(t0)
	} else {
		lat, _ = o.tr.span("sim.run", func() error { r = p.simulate(o.item); return nil })
		if err := p.traceLayers(o); err != nil {
			return lat, err
		}
	}
	if r != p.ref[o.item] {
		return lat, fmt.Errorf("paper-sim: cell %s/%s: statistics differ from the warm-up run", p.cells[o.item].bench.Name, systems[p.cells[o.item].sys].name)
	}
	return lat, nil
}

// traceLayers replays the operation's cell through its two layers
// separately: workload generation alone, and the CPU/hierarchy/assist
// model alone over the pre-rendered stream.
func (p *paperSim) traceLayers(o *op) error {
	c := p.cells[o.item]
	o.tr.span("workload.gen", func() error {
		s := trace.NewLimit(c.bench.Stream(c.seed), cellInstructions)
		var in trace.Instr
		for s.Next(&in) {
		}
		return nil
	})
	var m cpu.Metrics
	_, err := o.tr.span("cpu.run", func() error {
		img, err := trace.OpenMapped(p.images[c.bi], trace.Limits{})
		if err != nil {
			return err
		}
		m = cpu.MustNew(cpu.DefaultConfig(), hier.MustNew(hier.DefaultConfig(), systems[c.sys].make())).Run(img, cellInstructions)
		return nil
	})
	if err != nil {
		return fmt.Errorf("paper-sim: opening image: %w", err)
	}
	if m != p.ref[o.item].CPU {
		return fmt.Errorf("paper-sim: cell %s/%s: replay from the trace image differs from sim.Run", c.bench.Name, systems[c.sys].name)
	}
	return nil
}

// prepTrace writes each benchmark's cell stream into a v2 image, with
// slack past the cell length for the pipeline's fetch-ahead.
func (p *paperSim) prepTrace(string) error {
	suite := workload.Suite()
	p.images = make([][]byte, len(suite))
	for _, c := range p.cells {
		if p.images[c.bi] == nil {
			p.images[c.bi] = renderImage(c.bench.Stream(c.seed), cellInstructions+4096)
		}
	}
	return nil
}

// renderImage encodes the first n records of s as a complete v2 trace
// image, allocated once at its final size so set-up memory does not
// depend on when the collector runs.
func renderImage(s trace.Stream, n uint64) []byte {
	var buf bytes.Buffer
	buf.Grow(16 + 24*int(n)) // v2 header plus fixed-stride records
	w, err := trace.NewWriterV2(&buf, n)
	if err != nil {
		panic(err) // a bytes.Buffer write cannot fail
	}
	s = trace.NewLimit(s, n)
	var in trace.Instr
	for s.Next(&in) {
		if err := w.Write(in); err != nil {
			panic(err)
		}
	}
	if err := w.Flush(); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// digest is a SHA-256 over every cell's simulated statistics.
func (p *paperSim) digest() string {
	h := sha256.New()
	for i, c := range p.cells {
		fmt.Fprintf(h, "%s/%s %+v\n", c.bench.Name, systems[c.sys].name, p.ref[i])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// counts are exact simulated totals over one pass (every cell once).
func (p *paperSim) counts() map[string]float64 {
	var instr, cycles, stalls, misses, conflict, bufHits uint64
	for _, r := range p.ref {
		instr += r.CPU.Instructions
		cycles += r.CPU.Cycles
		stalls += r.CPU.LoadStallRetries
		misses += r.Sys.Misses
		conflict += r.Sys.ConflictMisses
		bufHits += r.Sys.BufferHits
	}
	return map[string]float64{
		"sim.instructions":       float64(instr),
		"sim.cycles":             float64(cycles),
		"cpu.load_stall_retries": float64(stalls),
		"assist.misses":          float64(misses),
		"assist.conflict_misses": float64(conflict),
		"assist.buffer_hits":     float64(bufHits),
	}
}

// layers reduces a traced window to host time per simulated instruction
// and cycle in each layer.
func (p *paperSim) layers(w window, ops map[uint64]map[string]time.Duration, _, _ promSnap) map[string]float64 {
	var run, gen, cpuRun time.Duration
	var instr, cycles uint64
	for _, r := range w.recs {
		if r.err != nil {
			continue
		}
		s := ops[r.id]
		run += s["sim.run"]
		gen += s["workload.gen"]
		cpuRun += s["cpu.run"]
		instr += p.ref[r.item].CPU.Instructions
		cycles += p.ref[r.item].CPU.Cycles
	}
	m := p.counts()
	m["workload.gen_ns_per_instr"] = float64(gen) / float64(instr)
	m["cpu.run_ns_per_instr"] = float64(cpuRun) / float64(instr)
	m["cpu.ns_per_sim_cycle"] = float64(cpuRun) / float64(cycles)
	m["sim.unattributed_ns_per_instr"] = float64(run-gen-cpuRun) / float64(instr)
	return m
}

// parallel runs fn(0..n-1) on the closed loop's worker count and waits.
func parallel(n int, fn func(i int)) {
	var wg sync.WaitGroup
	next := make(chan int)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}
