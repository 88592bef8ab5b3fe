// Package arch holds the architecture and technology models of the
// reproduction: the 45 nm technology constants of the paper's Table III,
// the analytical per-access-energy models of Eq. 4 (ε_R = σ_R·R,
// ε_S = σ_S·√S — the paper's closed-form reductions of the Accelergy and
// Cacti tools), the linear area model of Eq. 5, and the Eyeriss baseline
// configuration used throughout the evaluation.
package arch

import (
	"errors"
	"fmt"
	"math"
)

// ErrBadArch reports an invalid architecture configuration.
var ErrBadArch = errors.New("arch: invalid architecture")

// Tech is a set of technology constants (the paper's Table III, 45 nm).
// Units: areas in µm², energies in pJ, bandwidths in words/cycle.
type Tech struct {
	AreaMAC      float64 // µm² per MAC unit
	AreaRegister float64 // µm² per register word
	AreaSRAMWord float64 // µm² per SRAM word
	EnergyMAC    float64 // pJ per int16 MAC
	// SigmaR is the register energy constant: ε_R = SigmaR·R pJ for a
	// register file of R words (Eq. 4).
	SigmaR float64
	// SigmaS is the SRAM energy constant: ε_S = SigmaS·√S pJ for an SRAM
	// of S words (Eq. 4). Table III prints "17.88" with an empty unit
	// cell; we interpret it as 17.88×10⁻³ pJ/(word·√word), which
	// reproduces the paper's 20–30 pJ/MAC Eyeriss band (see DESIGN.md).
	SigmaS float64
	// EnergyDRAM is the pJ per DRAM word access.
	EnergyDRAM float64
	// EnergyNoCHop is the pJ per word-hop of the on-chip network (the
	// inter-PE data movement the paper notes "could be included in a
	// similar manner" but does not model). Zero (the default, matching
	// the paper) disables NoC energy; when positive, each SRAM↔register
	// word is charged for ≈ √P mesh hops.
	EnergyNoCHop float64
	// Bandwidths in words per cycle (Fig. 3(a) example values).
	BWDRAM float64
	BWSRAM float64
	BWReg  float64
	// WordBits is the primitive word width.
	WordBits int
}

// Tech45nm returns the paper's Table III constants.
func Tech45nm() Tech {
	return Tech{
		AreaMAC:      1239.5,
		AreaRegister: 19.874,
		AreaSRAMWord: 6.806,
		EnergyMAC:    2.2,
		SigmaR:       9.06719e-3,
		SigmaS:       17.88e-3,
		EnergyDRAM:   128,
		BWDRAM:       8,
		BWSRAM:       80,
		BWReg:        4,
		WordBits:     16,
	}
}

// Arch is a concrete accelerator configuration: P processing elements,
// R registers per PE, and an SRAM scratchpad of S words, with optional
// buffers between the registers and the SRAM.
type Arch struct {
	Name string
	PEs  int64 // P
	Regs int64 // R, words per PE
	SRAM int64 // S, words (shared scratchpad)
	Tech Tech
	// Mid lists the buffers between the register file and the SRAM,
	// innermost first. The per-PE ones come first (see Validate); the
	// PE grid sits above the last of them. Nil is the paper's
	// three-level memory.
	Mid []Buffer `json:",omitempty"`
}

// Buffer is one on-chip buffer between the register file and the SRAM.
type Buffer struct {
	Name   string
	Words  int64   // capacity in words, per instance
	Energy float64 // pJ per word access
	BW     float64 // words per cycle, per instance
	// PerPE makes the buffer private to each PE, like the registers;
	// otherwise one instance is shared by all PEs, like the SRAM.
	PerPE bool
}

// Validate checks that the configuration is physically meaningful.
func (a *Arch) Validate() error {
	if a.PEs < 1 || a.Regs < 1 || a.SRAM < 1 {
		return fmt.Errorf("%w: P=%d R=%d S=%d", ErrBadArch, a.PEs, a.Regs, a.SRAM)
	}
	for i, b := range a.Mid {
		if b.Words < 1 || b.Energy < 0 || b.BW <= 0 {
			return fmt.Errorf("%w: buffer %s: %d words, %g pJ/word, %g words/cycle", ErrBadArch, b.Name, b.Words, b.Energy, b.BW)
		}
		if b.PerPE && i > 0 && !a.Mid[i-1].PerPE {
			return fmt.Errorf("%w: per-PE buffer %s above shared buffer %s", ErrBadArch, b.Name, a.Mid[i-1].Name)
		}
	}
	return nil
}

// SpatialAfter returns the index, in the memory's buffers innermost
// first (registers, then Mid), of the last buffer private to each PE:
// the PE grid sits between it and the next buffer out.
func (a *Arch) SpatialAfter() int {
	n := 0
	for _, b := range a.Mid {
		if b.PerPE {
			n++
		}
	}
	return n
}

// RegEnergy returns the per-access register-file energy ε_R = σ_R·R (pJ).
func (a *Arch) RegEnergy() float64 { return a.Tech.SigmaR * float64(a.Regs) }

// SRAMEnergy returns the per-access SRAM energy ε_S = σ_S·√S (pJ).
func (a *Arch) SRAMEnergy() float64 { return a.Tech.SigmaS * math.Sqrt(float64(a.SRAM)) }

// Area returns the chip area of Eq. 5:
// (Area_R·R + Area_MAC)·P + Area_S·S (µm²).
func (a *Arch) Area() float64 {
	return (a.Tech.AreaRegister*float64(a.Regs)+a.Tech.AreaMAC)*float64(a.PEs) +
		a.Tech.AreaSRAMWord*float64(a.SRAM)
}

// String renders the configuration.
func (a *Arch) String() string {
	return fmt.Sprintf("%s{P=%d, R=%d, S=%d words, area=%.0fµm²}",
		a.Name, a.PEs, a.Regs, a.SRAM, a.Area())
}

// Eyeriss returns the paper's baseline configuration: 168 PEs, 512
// registers per PE, 128 KB scratchpad (65536 16-bit words), with 45 nm
// technology constants.
func Eyeriss() Arch {
	return Arch{
		Name: "eyeriss",
		PEs:  168,
		Regs: 512,
		SRAM: 128 * 1024 / 2, // 128 KB of 16-bit words
		Tech: Tech45nm(),
	}
}

// EyerissAreaBudget returns the total area of the Eyeriss baseline — the
// budget the co-design optimization must respect (the paper's equal-area
// constraint).
func EyerissAreaBudget() float64 {
	e := Eyeriss()
	return e.Area()
}

// CactiSqrtModel approximates per-access SRAM energy for a capacity of s
// words using the σ·√S model. Exposed for the model-validation tests
// that check the shape properties the paper cites from Cacti.
func CactiSqrtModel(sigma float64, words float64) float64 {
	return sigma * math.Sqrt(words)
}
