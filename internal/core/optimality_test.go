package core

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/dataflow"
	"repro/internal/loopnest"
	"repro/internal/mapper"
	"repro/internal/model"
)

// TestOptimalityAgainstExhaustive validates the paper's central claim —
// that the GP formulation + integerization finds (near-)optimal designs
// — by comparing Thistle against a complete enumeration of the mapping
// space on problems small enough to enumerate. Thistle must come within
// a few percent of the true optimum on every case and criterion.
func TestOptimalityAgainstExhaustive(t *testing.T) {
	cases := []struct {
		name string
		prob func() (*loopnest.Problem, error)
		a    arch.Arch
	}{
		{
			name: "matmul8",
			prob: func() (*loopnest.Problem, error) { return loopnest.MatMul(8, 8, 8), nil },
			a:    arch.Arch{Name: "t", PEs: 16, Regs: 64, SRAM: 512, Tech: arch.Tech45nm()},
		},
		{
			name: "matmul_16x8x4",
			prob: func() (*loopnest.Problem, error) { return loopnest.MatMul(16, 8, 4), nil },
			a:    arch.Arch{Name: "t", PEs: 8, Regs: 48, SRAM: 384, Tech: arch.Tech45nm()},
		},
		{
			name: "conv_tiny",
			prob: func() (*loopnest.Problem, error) {
				return loopnest.Conv2D(loopnest.Conv2DConfig{
					Name: "tiny", N: 1, K: 4, C: 4, H: 6, W: 6, R: 3, S: 3,
					StrideX: 1, StrideY: 1,
				})
			},
			a: arch.Arch{Name: "t", PEs: 16, Regs: 128, SRAM: 1024, Tech: arch.Tech45nm()},
		},
	}
	for _, tc := range cases {
		for _, crit := range []model.Criterion{model.MinEnergy, model.MinDelay} {
			t.Run(tc.name+"/"+crit.String(), func(t *testing.T) {
				p, err := tc.prob()
				if err != nil {
					t.Fatal(err)
				}
				// Ground truth: complete enumeration of the register
				// placement of the kernel loops. Thistle also tries the
				// level-1 placement, as every run does; for conv_tiny
				// (the one case with kernel loops) that space's optimum
				// is no better (energy 125,675 vs 125,121 pJ, delay 324
				// vs 324 cycles), so the oracle still bounds Thistle from
				// below. The level-1 enumeration takes ~20 s per
				// criterion, too long to run here.
				exh, err := mapper.Exhaustive(p, &tc.a, crit, dataflow.StandardOptions{})
				if err != nil {
					t.Fatal(err)
				}
				res, err := Optimize(p, Options{
					Criterion: crit,
					Mode:      FixedArch,
					Arch:      &tc.a,
					NDiv:      3,
				})
				if err != nil {
					t.Fatal(err)
				}
				got := model.Score(crit, res.Best.Report)
				want := model.Score(crit, exh.Report)
				t.Logf("thistle %.6g vs exhaustive optimum %.6g (ratio %.4f, %d mappings enumerated)",
					got, want, got/want, exh.Trials)
				if got < want-1e-6 {
					t.Fatalf("thistle %.6g beat the exhaustive optimum %.6g — oracle bug", got, want)
				}
				if got > 1.06*want {
					t.Fatalf("thistle %.6g more than 6%% above the true optimum %.6g", got, want)
				}
			})
		}
	}
}
