package sim

import (
	"testing"
	"time"

	"repro/internal/workload"
)

// paperSimInstrs is the length of one paper-sim cell.
const paperSimInstrs = 100_000

// BenchmarkPaperSimCells times the paper-sim cells: every suite benchmark
// on the baseline, victim and AMB systems, one sim.Run of 100k
// instructions each, at the default seed. One iteration runs all 48 cells
// serially and the benchmark reports the mean wall time per cell, so a CPU
// profile of it is a profile of the timing model's per-instruction cost:
//
//	go test -run '^$' -bench PaperSimCells -cpuprofile cpu.out ./internal/sim
func BenchmarkPaperSimCells(b *testing.B) {
	suite := workload.Suite()
	cells := 0
	start := time.Now()
	for i := 0; i < b.N; i++ {
		for _, w := range suite {
			for _, s := range schedSystems {
				Run(w, s.make(), Options{Instructions: paperSimInstrs})
				cells++
			}
		}
	}
	b.ReportMetric(float64(time.Since(start).Nanoseconds())/1e6/float64(cells), "ms/cell")
}
