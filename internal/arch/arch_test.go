package arch

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestTable3Constants(t *testing.T) {
	tech := Tech45nm()
	if tech.AreaMAC != 1239.5 || tech.AreaRegister != 19.874 || tech.AreaSRAMWord != 6.806 {
		t.Fatalf("area constants wrong: %+v", tech)
	}
	if tech.EnergyMAC != 2.2 || tech.EnergyDRAM != 128 {
		t.Fatalf("energy constants wrong: %+v", tech)
	}
	if tech.SigmaR != 9.06719e-3 {
		t.Fatalf("SigmaR = %v", tech.SigmaR)
	}
	if tech.WordBits != 16 {
		t.Fatalf("WordBits = %d", tech.WordBits)
	}
}

func TestEyerissBaseline(t *testing.T) {
	e := Eyeriss()
	if err := e.Validate(); err != nil {
		t.Fatal(err)
	}
	if e.PEs != 168 || e.Regs != 512 || e.SRAM != 65536 {
		t.Fatalf("Eyeriss config wrong: %+v", e)
	}
	// ε_R = σ_R·512 ≈ 4.64 pJ: together with the 2.2 pJ MAC this puts the
	// per-MAC floor (4ε_R + ε_op) at ≈ 20.8 pJ, inside the paper's
	// reported 20–30 pJ/MAC Eyeriss band.
	er := e.RegEnergy()
	if math.Abs(er-4.6424) > 1e-3 {
		t.Fatalf("Eyeriss ε_R = %v, want ≈4.642", er)
	}
	floor := 4*er + e.Tech.EnergyMAC
	if floor < 20 || floor > 30 {
		t.Fatalf("Eyeriss per-MAC floor = %v, want in [20, 30]", floor)
	}
	// ε_S = σ_S·√65536 = 17.88e-3·256 ≈ 4.58 pJ.
	es := e.SRAMEnergy()
	if math.Abs(es-4.577) > 1e-2 {
		t.Fatalf("Eyeriss ε_S = %v, want ≈4.58", es)
	}
}

func TestEyerissArea(t *testing.T) {
	e := Eyeriss()
	want := (19.874*512+1239.5)*168 + 6.806*65536
	if math.Abs(e.Area()-want) > 1e-6*want {
		t.Fatalf("Area = %v, want %v", e.Area(), want)
	}
	if EyerissAreaBudget() != e.Area() {
		t.Fatal("EyerissAreaBudget mismatch")
	}
}

func TestValidate(t *testing.T) {
	bad := map[string]Arch{
		"empty":        {},
		"no PEs":       {PEs: 0, Regs: 1, SRAM: 1},
		"no registers": {PEs: 1, Regs: 0, SRAM: 1},
		"no SRAM":      {PEs: 1, Regs: 1, SRAM: 0},
	}
	for name, a := range bad {
		if err := a.Validate(); !errors.Is(err, ErrBadArch) {
			t.Errorf("%s: Validate(%+v) = %v, want ErrBadArch", name, a, err)
		}
	}
	good := Arch{PEs: 1, Regs: 1, SRAM: 1, Tech: Tech45nm()}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	if good.String() == "" {
		t.Fatal("empty String")
	}
}

// The buffers between the registers and the global SRAM: each needs
// words, bandwidth and a non-negative energy, and the per-PE ones must
// form a prefix of the list.
func TestValidateBuffers(t *testing.T) {
	spad := Buffer{Name: "spad", Words: 2048, Energy: 0.8, BW: 8, PerPE: true}
	buf := Buffer{Name: "l2", Words: 8192, Energy: 1.6, BW: 16}
	with := func(mid ...Buffer) Arch { return Arch{PEs: 1, Regs: 1, SRAM: 1, Tech: Tech45nm(), Mid: mid} }
	zeroWords, negEnergy, zeroBW := spad, spad, spad
	zeroWords.Words = 0
	negEnergy.Energy = -1
	zeroBW.BW = 0
	bad := map[string]Arch{
		"buffer of no words":    with(zeroWords),
		"negative energy":       with(negEnergy),
		"no bandwidth":          with(zeroBW),
		"per-PE above shared":   with(buf, spad),
		"per-PE between shared": with(spad, buf, spad),
	}
	for name, a := range bad {
		if err := a.Validate(); !errors.Is(err, ErrBadArch) {
			t.Errorf("%s: Validate(%+v) = %v, want ErrBadArch", name, a, err)
		}
	}
	good := map[string]Arch{
		"paper":         with(),
		"per-PE":        with(spad),
		"shared":        with(buf),
		"per-PE prefix": with(spad, spad, buf, buf),
	}
	for name, a := range good {
		if err := a.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if a.String() == "" {
			t.Fatal("empty String")
		}
	}
	deep, paper := with(spad, spad, buf), with()
	if got := deep.SpatialAfter(); got != 2 {
		t.Errorf("SpatialAfter with two per-PE buffers = %d, want 2", got)
	}
	if got := paper.SpatialAfter(); got != 0 {
		t.Errorf("SpatialAfter of the paper's memory = %d, want 0", got)
	}
}

// Property: the Eq. 4 energy models are monotone in capacity, and the
// SRAM model exhibits the square-root shape (doubling capacity increases
// energy by exactly √2).
func TestQuickEnergyModelShape(t *testing.T) {
	tech := Tech45nm()
	f := func(rRaw, sRaw uint16) bool {
		r := int64(rRaw%1024) + 1
		s := int64(sRaw)*16 + 16
		a := Arch{PEs: 1, Regs: r, SRAM: s, Tech: tech}
		b := Arch{PEs: 1, Regs: 2 * r, SRAM: 2 * s, Tech: tech}
		if b.RegEnergy() <= a.RegEnergy() || b.SRAMEnergy() <= a.SRAMEnergy() {
			return false
		}
		ratio := b.SRAMEnergy() / a.SRAMEnergy()
		return math.Abs(ratio-math.Sqrt2) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: area is linear in each parameter (Eq. 5 structure).
func TestQuickAreaLinear(t *testing.T) {
	tech := Tech45nm()
	f := func(p8, r8, s8 uint8) bool {
		p := int64(p8%64) + 1
		r := int64(r8) + 1
		s := int64(s8)*64 + 64
		base := Arch{PEs: p, Regs: r, SRAM: s, Tech: tech}
		dp := Arch{PEs: p + 1, Regs: r, SRAM: s, Tech: tech}
		ds := Arch{PEs: p, Regs: r, SRAM: s + 1, Tech: tech}
		// Adding one PE adds (AreaR·R + AreaMAC); adding one SRAM word
		// adds AreaS.
		wantDP := tech.AreaRegister*float64(r) + tech.AreaMAC
		wantDS := tech.AreaSRAMWord
		return math.Abs(dp.Area()-base.Area()-wantDP) < 1e-6 &&
			math.Abs(ds.Area()-base.Area()-wantDS) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCactiSqrtModel(t *testing.T) {
	if got := CactiSqrtModel(2, 16); got != 8 {
		t.Fatalf("CactiSqrtModel = %v, want 8", got)
	}
}
