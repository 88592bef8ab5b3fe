package core

import (
	"math"
	"testing"

	"repro/internal/model"
	"repro/internal/workloads"
)

// TestGoldenIterates pins two designs bit for bit, along with the search
// effort that found them, at scheduler width 1. The selected design
// follows floating-point rounding wherever relaxed GP optima tie across
// permutation pairs (resnet18_L3's SRAM orders [5 1 2 6] and [1 2 5 6]
// tie at 3.52954e8), so a solver change that moves any Newton iterate
// can change results. A change that moves iterates on purpose must
// update these values and say why. resnet18_L10's Candidates counts the
// leaves its delay searches evaluate: the integerize branch and bound
// skips tilings whose PE count cannot beat the incumbent's delay, which
// cut it from 196764 to 9512 with the same design bit for bit. Energy
// searches are not pruned, so resnet18_L3 evaluates every leaf.
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
			stats: Stats{ClassesL1: 5, ClassesSRAM: 5, PairsSolved: 25, Suboptimal: 10,
				Candidates: 11776, NewtonIters: 3369, FreshSolves: 25},
			gpObjective: 0x41b509a74f8bbcd5, // 352954191.5458501
			energy:      0x41b509ec000e17c6, // 27.479193244081635 pJ/MAC
			cycles:      0x40f8800000000000, // 100352
		},
		{
			layer: "resnet18_L10",
			opts:  Options{Criterion: model.MinDelay, Mode: CoDesign, Parallel: 1},
			stats: Stats{ClassesL1: 17, ClassesSRAM: 10, PairsSolved: 85, Suboptimal: 16,
				Candidates: 9512, NewtonIters: 10257, FreshSolves: 85},
			gpObjective: 0x4103a5000107aa12, // 160928.0005028998
			energy:      0x41bcbaff4075f36b, // 482017088.4607455 pJ
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
