package experiments

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/workloads"
)

func quickCfg() Config {
	all := workloads.All()
	return Config{Quick: true, Layers: []workloads.Layer{all[5], all[14]}, Seed: 3}
}

func TestTable2(t *testing.T) {
	e, err := Table2(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Labels) != 23 || len(e.Series) != 6 {
		t.Fatalf("table2 shape: %d labels, %d series", len(e.Labels), len(e.Series))
	}
	var buf bytes.Buffer
	e.Render(&buf)
	if !strings.Contains(buf.String(), "resnet18_L1") || !strings.Contains(buf.String(), "yolo9000_L11") {
		t.Fatalf("render missing layers:\n%s", buf.String())
	}
}

func TestTable3(t *testing.T) {
	e, err := Table3(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Labels) != 7 {
		t.Fatalf("table3 rows = %d", len(e.Labels))
	}
	if e.Series[0].Values[0] != 1239.5 {
		t.Fatalf("AreaMAC = %v", e.Series[0].Values[0])
	}
}

// TestFig4Quick checks the core Fig. 4 claims on a 2-layer subset:
// Thistle and Mapper both land in a sane Eyeriss band, with Thistle at
// least as good (EnergyUp ≥ ~1).
func TestFig4Quick(t *testing.T) {
	e, err := Fig4(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	for i := range e.Labels {
		th := e.Series[0].Values[i]
		mp := e.Series[1].Values[i]
		up := e.Series[2].Values[i]
		if th < 18 || th > 35 {
			t.Errorf("%s: thistle %.2f pJ/MAC outside Eyeriss band", e.Labels[i], th)
		}
		if up < 0.95 {
			t.Errorf("%s: EnergyUp %.3f < 0.95 (mapper %.2f beat thistle %.2f)",
				e.Labels[i], up, mp, th)
		}
	}
}

// TestFig4Committed is the tier-1 gate on the committed Fig. 4 numbers:
// Thistle's pJ/MAC on each of the 23 Table II layers (energy, fixed
// Eyeriss) must print as results/fig4.tsv's thistle_pJ_per_MAC at its
// 3 decimals.
func TestFig4Committed(t *testing.T) {
	if testing.Short() {
		t.Skip("optimizes all 23 Table II layers")
	}
	want := map[string]string{}
	raw, err := os.ReadFile(filepath.Join("..", "..", "results", "fig4.tsv"))
	if err != nil {
		t.Fatal(err)
	}
	col := -1
	for _, line := range strings.Split(string(raw), "\n") {
		fields := strings.Split(line, "\t")
		switch {
		case fields[0] == "layer":
			col = slices.Index(fields, "thistle_pJ_per_MAC")
		case col > 0 && col < len(fields):
			want[fields[0]] = fields[col]
		}
	}
	layers := workloads.All()
	eyeriss := arch.Eyeriss()
	results, err := OptimizeLayers(context.Background(), layers,
		core.Options{Criterion: model.MinEnergy, Mode: core.FixedArch, Arch: &eyeriss}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, l := range layers {
		got := fmt.Sprintf("%.3f", results[i].Best.Report.EnergyPerMAC)
		if got != want[l.Name()] {
			t.Errorf("%s: %s pJ/MAC, results/fig4.tsv has %q", l.Name(), got, want[l.Name()])
		}
	}
}

// TestFig5Quick: co-design must cut pJ/MAC well below the Eyeriss line
// (the paper reports ~4-6x, reaching ~5 pJ/MAC).
func TestFig5Quick(t *testing.T) {
	e, err := Fig5(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	for i := range e.Labels {
		base := e.Series[0].Values[i]
		cd := e.Series[1].Values[i]
		if cd >= base {
			t.Errorf("%s: codesign %.2f did not improve on Eyeriss %.2f", e.Labels[i], cd, base)
		}
		if cd > 10 {
			t.Errorf("%s: codesign %.2f pJ/MAC > 10 (paper: <10 for all layers)", e.Labels[i], cd)
		}
	}
}

// TestFig6Quick: the single shared architecture should stay well below
// the Eyeriss line and not far above layer-wise.
func TestFig6Quick(t *testing.T) {
	e, err := Fig6(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	for i := range e.Labels {
		eyeriss := e.Series[0].Values[i]
		lw := e.Series[1].Values[i]
		single := e.Series[2].Values[i]
		if single >= eyeriss {
			t.Errorf("%s: single-arch %.2f not better than Eyeriss %.2f", e.Labels[i], single, eyeriss)
		}
		// Layer-wise should be at least roughly as good as the shared
		// architecture; a small inversion is possible because the
		// integerization is not globally optimal.
		if single < 0.9*lw {
			t.Errorf("%s: single-arch %.2f far below layer-wise %.2f", e.Labels[i], single, lw)
		}
	}
	if len(e.Notes) == 0 || !strings.Contains(e.Notes[0], "energy-dominant layer") {
		t.Fatalf("missing dominant-layer note: %v", e.Notes)
	}
}

// TestFig7Quick: Thistle IPC must be within the theoretical max and at
// least match the mapper (speedup ≥ ~1).
func TestFig7Quick(t *testing.T) {
	e, err := Fig7(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	for i := range e.Labels {
		th := e.Series[0].Values[i]
		if th > 168+1e-9 {
			t.Errorf("%s: IPC %.1f exceeds the 168-PE maximum", e.Labels[i], th)
		}
		if e.Series[2].Values[i] < 0.95 {
			t.Errorf("%s: speedup %.3f < 0.95", e.Labels[i], e.Series[2].Values[i])
		}
	}
}

// TestFig8Quick: layer-wise co-design throughput should exceed Eyeriss
// substantially (the paper reports order-of-magnitude gains).
func TestFig8Quick(t *testing.T) {
	e, err := Fig8(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	for i := range e.Labels {
		eyeriss := e.Series[0].Values[i]
		lw := e.Series[1].Values[i]
		if lw <= eyeriss {
			t.Errorf("%s: layer-wise IPC %.1f not above Eyeriss %.1f", e.Labels[i], lw, eyeriss)
		}
	}
}

func TestRunnersRegistry(t *testing.T) {
	rs := AllRunners()
	for _, id := range Order() {
		if rs[id] == nil {
			t.Fatalf("missing runner %s", id)
		}
	}
	if len(rs) != len(Order()) {
		t.Fatalf("registry size %d != order size %d", len(rs), len(Order()))
	}
}

func TestExtEDPQuick(t *testing.T) {
	e, err := ExtEDP(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	for i := range e.Labels {
		en, de, ed := e.Series[0].Values[i], e.Series[1].Values[i], e.Series[2].Values[i]
		best := en
		if de < best {
			best = de
		}
		if ed > 1.05*best {
			t.Errorf("%s: EDP design %.4g worse than best single-objective %.4g", e.Labels[i], ed, best)
		}
	}
}

func TestExtNoCQuick(t *testing.T) {
	e, err := ExtNoC(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	for i := range e.Labels {
		if e.Series[1].Values[i] <= e.Series[0].Values[i] {
			t.Errorf("%s: NoC-modeled energy not above baseline", e.Labels[i])
		}
		// The paper's observation: the NoC component stays non-dominant.
		if e.Series[2].Values[i] > 50 {
			t.Errorf("%s: NoC component %.1f%% dominates", e.Labels[i], e.Series[2].Values[i])
		}
	}
}

func TestRenderBars(t *testing.T) {
	e := &Experiment{
		ID: "x", Title: "t", Unit: "u",
		Labels: []string{"a", "b"},
		Series: []Series{{Name: "s", Values: []float64{1, 2}}},
	}
	var buf bytes.Buffer
	e.RenderBars(&buf)
	out := buf.String()
	if !strings.Contains(out, "########") || !strings.Contains(out, "max 2.000") {
		t.Fatalf("bars output:\n%s", out)
	}
}
