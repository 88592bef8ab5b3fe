// Benchmarks regenerating the paper's evaluation: one benchmark per
// table and figure (Tables II-III, Figs. 4-8), the Fig. 1/Eq. 1-2 matmul
// sanity series, and ablations for the design choices called out in
// DESIGN.md. Figure benchmarks run the Quick configuration (a
// representative layer subset with reduced mapper budgets) so that
// `go test -bench=.` finishes in minutes; cmd/experiments runs the full
// 23-layer sweeps. Reported custom metrics carry the headline numbers
// (pJ/MAC, IPC, ratios) so the paper's shapes are visible straight from
// the benchmark output.
package repro

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/experiments"
	"repro/internal/loopnest"
	"repro/internal/model"
	"repro/internal/workloads"
)

func quickCfg(seed int64) experiments.Config {
	all := workloads.All()
	return experiments.Config{
		Quick:  true,
		Layers: []workloads.Layer{all[5], all[14]},
		Seed:   seed,
	}
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// BenchmarkTable2Workloads regenerates Table II.
func BenchmarkTable2Workloads(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e, err := experiments.Table2(experiments.Config{})
		if err != nil {
			b.Fatal(err)
		}
		if len(e.Labels) != 23 {
			b.Fatalf("labels = %d", len(e.Labels))
		}
	}
}

// BenchmarkTable3Params regenerates Table III.
func BenchmarkTable3Params(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table3(experiments.Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4EnergyEyeriss regenerates the Fig. 4 comparison (energy,
// Mapper vs Thistle on Eyeriss). Expected shape: both in the 20-30
// pJ/MAC band, energy_up ≥ ~1.
func BenchmarkFig4EnergyEyeriss(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e, err := experiments.Fig4(quickCfg(int64(i + 1)))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(mean(e.Series[0].Values), "thistle_pJ/MAC")
		b.ReportMetric(mean(e.Series[1].Values), "mapper_pJ/MAC")
		b.ReportMetric(mean(e.Series[2].Values), "energy_up")
	}
}

// BenchmarkFig5EnergyCodesign regenerates the Fig. 5 comparison (energy,
// Eyeriss vs layer-wise co-design at equal area). Expected shape:
// co-design reaches ~5 pJ/MAC (< 10 for all layers).
func BenchmarkFig5EnergyCodesign(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e, err := experiments.Fig5(quickCfg(int64(i + 1)))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(mean(e.Series[0].Values), "eyeriss_pJ/MAC")
		b.ReportMetric(mean(e.Series[1].Values), "codesign_pJ/MAC")
	}
}

// BenchmarkFig6SingleArch regenerates the Fig. 6 study (energy with a
// single shared architecture chosen from the energy-dominant layer).
func BenchmarkFig6SingleArch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e, err := experiments.Fig6(quickCfg(int64(i + 1)))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(mean(e.Series[0].Values), "eyeriss_pJ/MAC")
		b.ReportMetric(mean(e.Series[1].Values), "layerwise_pJ/MAC")
		b.ReportMetric(mean(e.Series[2].Values), "single_pJ/MAC")
	}
}

// BenchmarkFig7ThroughputEyeriss regenerates the Fig. 7 comparison
// (IPC, Mapper vs Thistle on Eyeriss; theoretical max 168).
func BenchmarkFig7ThroughputEyeriss(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e, err := experiments.Fig7(quickCfg(int64(i + 1)))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(mean(e.Series[0].Values), "thistle_IPC")
		b.ReportMetric(mean(e.Series[1].Values), "mapper_IPC")
		b.ReportMetric(mean(e.Series[2].Values), "speedup")
	}
}

// BenchmarkFig8DelayCodesign regenerates the Fig. 8 study (IPC with
// layer-wise co-design and a single shared architecture from the
// delay-dominant layer). Expected shape: layer-wise IPC far above
// Eyeriss.
func BenchmarkFig8DelayCodesign(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e, err := experiments.Fig8(quickCfg(int64(i + 1)))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(mean(e.Series[0].Values), "eyeriss_IPC")
		b.ReportMetric(mean(e.Series[1].Values), "layerwise_IPC")
		b.ReportMetric(mean(e.Series[2].Values), "single_IPC")
	}
}

// BenchmarkMatmulVolumes exercises the Eq. 1/Eq. 2 closed-form volume
// construction (Fig. 1's running example) end to end: symbolic
// Algorithm 1 plus exact evaluation.
func BenchmarkMatmulVolumes(b *testing.B) {
	p := loopnest.MatMul(1024, 1024, 1024)
	n, err := dataflow.StandardNest(p, dataflow.StandardOptions{})
	if err != nil {
		b.Fatal(err)
	}
	trips := [][]int64{
		{8, 8, 8}, {4, 4, 16}, {4, 4, 1}, {8, 8, 8},
	}
	x := n.Assignment(n.Vars.Len(), trips)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, err := n.ComputeVolumes(dataflow.StandardPerms([]int{0, 1, 2}, []int{0, 2, 1}))
		if err != nil {
			b.Fatal(err)
		}
		if v.EvalTraffic(1, x) <= 0 {
			b.Fatal("bad volume")
		}
	}
}

// BenchmarkAblationRelaxation quantifies the posynomial relaxation
// (dropping the −1 constants of convolution extents) against exact
// integer evaluation on a 3×3 conv layer: the reported ratio is
// relaxed/exact SRAM-boundary traffic.
func BenchmarkAblationRelaxation(b *testing.B) {
	l, _ := workloads.ByName("resnet18_L6")
	p, err := l.Problem()
	if err != nil {
		b.Fatal(err)
	}
	n, err := dataflow.StandardNest(p, dataflow.StandardOptions{})
	if err != nil {
		b.Fatal(err)
	}
	perm := n.Levels[dataflow.StandardLevelSRAM].Active
	v, err := n.ComputeVolumes(dataflow.StandardPerms(
		n.Levels[dataflow.StandardLevelL1].Active, perm))
	if err != nil {
		b.Fatal(err)
	}
	trips := make([][]int64, 4)
	for li := range trips {
		trips[li] = make([]int64, len(p.Iters))
		for it := range trips[li] {
			trips[li][it] = 1
		}
	}
	// A plausible mid-size tiling: k: 2·2·4·4, c: 2·2·4·4, h/w: 2·1·2·7.
	kIdx, cIdx := loopnest.ConvK, loopnest.ConvC
	hIdx, wIdx := loopnest.ConvH, loopnest.ConvW
	rIdx, sIdx := loopnest.ConvR, loopnest.ConvS
	for _, it := range []int{kIdx, cIdx} {
		trips[0][it], trips[1][it], trips[2][it], trips[3][it] = 2, 2, 4, 4
	}
	for _, it := range []int{hIdx, wIdx} {
		trips[0][it], trips[1][it], trips[2][it], trips[3][it] = 2, 1, 2, 7
	}
	trips[0][rIdx], trips[0][sIdx] = 3, 3
	x := n.Assignment(n.Vars.Len(), trips)
	b.ResetTimer()
	var ratio float64
	for i := 0; i < b.N; i++ {
		exact := v.SumTraffic(0, false).Eval(x)
		relaxed := v.SumTraffic(0, true).Eval(x)
		ratio = relaxed / exact
	}
	b.ReportMetric(ratio, "relaxed/exact")
}

// BenchmarkAblationPruning compares the permutation-class count with and
// without hoist-prefix/symmetry pruning, and the end-to-end optimize
// time in raw-enumeration mode.
func BenchmarkAblationPruning(b *testing.B) {
	l, _ := workloads.ByName("resnet18_L9")
	p, err := l.Problem()
	if err != nil {
		b.Fatal(err)
	}
	a := arch.Eyeriss()
	b.Run("pruned", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := core.Optimize(p, core.Options{
				Criterion: model.MinEnergy, Mode: core.FixedArch, Arch: &a,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(res.Stats.PairsSolved), "GPs")
			b.ReportMetric(res.Best.Report.EnergyPerMAC, "pJ/MAC")
		}
	})
	b.Run("raw", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := core.Optimize(p, core.Options{
				Criterion: model.MinEnergy, Mode: core.FixedArch, Arch: &a,
				DisablePruning: true,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(res.Stats.PairsSolved), "GPs")
			b.ReportMetric(res.Best.Report.EnergyPerMAC, "pJ/MAC")
		}
	})
}

// BenchmarkAblationIntegerize sweeps the paper's n (divisor candidates
// per tile variable) and reports the achieved energy, showing the
// quality/cost tradeoff of the integerization width.
func BenchmarkAblationIntegerize(b *testing.B) {
	l, _ := workloads.ByName("yolo9000_L5")
	p, err := l.Problem()
	if err != nil {
		b.Fatal(err)
	}
	a := arch.Eyeriss()
	for _, n := range []int{1, 2, 3} {
		b.Run(map[int]string{1: "n1", 2: "n2", 3: "n3"}[n], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := core.Optimize(p, core.Options{
					Criterion: model.MinEnergy, Mode: core.FixedArch, Arch: &a, NDiv: n,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.Best.Report.EnergyPerMAC, "pJ/MAC")
				b.ReportMetric(float64(res.Stats.Candidates), "candidates")
			}
		})
	}
}

// BenchmarkAblationGridSearch contrasts single-shot co-design against
// the grid search prior work uses: dataflow optimization at each point
// of a (P, R, S) grid under the same area budget.
func BenchmarkAblationGridSearch(b *testing.B) {
	l, _ := workloads.ByName("resnet18_L6")
	p, err := l.Problem()
	if err != nil {
		b.Fatal(err)
	}
	budget := arch.EyerissAreaBudget()
	b.Run("singleshot", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := core.Optimize(p, core.Options{
				Criterion: model.MinEnergy, Mode: core.CoDesign, AreaBudget: budget,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(res.Best.Report.EnergyPerMAC, "pJ/MAC")
			b.ReportMetric(1, "arch_points")
		}
	})
	b.Run("grid", func(b *testing.B) {
		regs := []int64{16, 64, 256}
		srams := []int64{16384, 65536, 262144}
		for i := 0; i < b.N; i++ {
			points := 0
			best := 0.0
			for _, r := range regs {
				for _, s := range srams {
					// Spend the leftover area on PEs.
					tech := arch.Tech45nm()
					rem := budget - tech.AreaSRAMWord*float64(s)
					pe := int64(rem / (tech.AreaRegister*float64(r) + tech.AreaMAC))
					if pe < 1 {
						continue
					}
					a := arch.Arch{Name: "grid", PEs: pe, Regs: r, SRAM: s, Tech: tech}
					points++
					res, err := core.Optimize(p, core.Options{
						Criterion: model.MinEnergy, Mode: core.FixedArch, Arch: &a,
					})
					if err != nil {
						continue
					}
					if best == 0 || res.Best.Report.EnergyPerMAC < best {
						best = res.Best.Report.EnergyPerMAC
					}
				}
			}
			b.ReportMetric(best, "pJ/MAC")
			b.ReportMetric(float64(points), "arch_points")
		}
	})
}

// BenchmarkExtEDP runs the energy-delay-product extension (objective the
// paper mentions but does not evaluate) on the quick layer subset.
func BenchmarkExtEDP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e, err := experiments.ExtEDP(quickCfg(int64(i + 1)))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(mean(e.Series[0].Values), "energyDesign_EDP")
		b.ReportMetric(mean(e.Series[2].Values), "edpDesign_EDP")
	}
}

// BenchmarkExtNoC runs the inter-PE network-energy extension and reports
// how non-dominant the NoC component stays (the paper's justification
// for omitting it).
func BenchmarkExtNoC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e, err := experiments.ExtNoC(quickCfg(int64(i + 1)))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(mean(e.Series[1].Values), "noc_pJ/MAC")
		b.ReportMetric(mean(e.Series[2].Values), "noc_pct")
	}
}
