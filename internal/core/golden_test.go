package core

import (
	"math"
	"testing"

	"repro/internal/model"
	"repro/internal/workloads"
)

// TestGoldenIterates pins two designs bit for bit, along with the search
// effort that found them, at scheduler width 1. A change that moves any
// Newton iterate or the integerized pair set must update these values
// and say why.
//
// The values moved last when Newton began stopping once its Armijo
// decrease fell below float64 resolution: the rounding-level steps a
// centering used to take are gone (resnet18_L3 3369 → 1394 iterations,
// its 10 Suboptimal centerings now converge), which moves the last bits
// of every relaxed optimum (resnet18_L10's GPObjective). In the same
// change integerization took every pair that ties the k-th relaxed
// optimum within the solver's gap, in permutation-key order, and a
// fixed-arch prefix over the PE count stopped being searched.
// resnet18_L3's SRAM orders [5 1 2 6] and [1 2 5 6] tie at 3.52954e8, so
// its band is wider than three pairs (Candidates 11776 → 20208, same
// design). resnet18_L10's co-design delay band holds the pairs tied at
// the compute bound; the key-order first of the designs at the best
// 160928 cycles has a different energy, and the wider band costs more
// leaves (9512 → 103445) even with the later pairs seeded by the first
// round's best delay.
func TestGoldenIterates(t *testing.T) {
	cases := []struct {
		layer string
		opts  Options
		stats Stats
		// math.Float64bits of Best.GPObjective, Report.Energy and
		// Report.Cycles.
		gpObjective, energy, cycles uint64
	}{
		{
			layer: "resnet18_L3",
			opts:  Options{Criterion: model.MinEnergy, Mode: FixedArch, Parallel: 1},
			stats: Stats{ClassesL1: 5, ClassesSRAM: 5, PairsSolved: 25,
				Candidates: 20208, NewtonIters: 1394, FreshSolves: 25},
			gpObjective: 0x41b509a74f8bbcd5, // 352954191.5458501
			energy:      0x41b509ec000e17c6, // 27.479193244081635 pJ/MAC
			cycles:      0x40f8800000000000, // 100352
		},
		{
			layer: "resnet18_L10",
			opts:  Options{Criterion: model.MinDelay, Mode: CoDesign, Parallel: 1},
			stats: Stats{ClassesL1: 17, ClassesSRAM: 10, PairsSolved: 85,
				Candidates: 103445, NewtonIters: 6704, FreshSolves: 85},
			gpObjective: 0x4103a50001079f7b, // 160928.0005028209
			energy:      0x41be2d4efc49e2f2, // 506285820.28861916 pJ
			cycles:      0x4103a50000000000, // 160928: IPC 359.1839331875124
		},
	}
	for _, c := range cases {
		t.Run(c.layer, func(t *testing.T) {
			l, _ := workloads.ByName(c.layer)
			p, err := l.Problem()
			if err != nil {
				t.Fatal(err)
			}
			res, err := Optimize(p, c.opts)
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats != c.stats {
				t.Errorf("stats %+v, golden %+v", res.Stats, c.stats)
			}
			for _, v := range []struct {
				name string
				got  float64
				want uint64
			}{
				{"GPObjective", res.Best.GPObjective, c.gpObjective},
				{"Energy", res.Best.Report.Energy, c.energy},
				{"Cycles", res.Best.Report.Cycles, c.cycles},
			} {
				if math.Float64bits(v.got) != v.want {
					t.Errorf("%s %v (%#x), golden %v (%#x)", v.name, v.got,
						math.Float64bits(v.got), math.Float64frombits(v.want), v.want)
				}
			}
		})
	}
}
