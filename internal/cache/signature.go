// Package cache is the content-addressed memoization layer of the
// reproduction. Thistle's cost is dominated by re-solving near-identical
// geometric programs: CNNs repeat layer shapes across stages, and the
// experiment sweeps (Tables II–III, Figs. 4–8) formulate and barrier-solve
// the same (workload shape × architecture × options) problem dozens of
// times. This package hashes the semantic content of an optimization
// request into a stable Signature and memoizes the solved result in a
// concurrency-safe in-memory LRU with single-flight deduplication and an
// optional on-disk persistent tier of schema-versioned JSON records.
//
// The signature is computed over a canonical form of the inputs, so
// representational differences that cannot affect the optimization
// result — problem and tensor names, tensor order, subscript-term
// order — hash equal, while every semantic change (an extent, a stride,
// a read-write flag, a technology constant, a solver tolerance) hashes
// different. Iterator names are ignored except for the convolution
// kernel role: iterators named "r" or "s" are treated specially by the
// dataflow construction (they stay untiled), so that role is part of
// the hash.
package cache

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"slices"
	"strconv"

	"repro/internal/arch"
	"repro/internal/dataflow"
	"repro/internal/loopnest"
	"repro/internal/model"
)

// SchemaVersion tags the cache record format and the optimizer behind
// it. It is mixed into every signature and written into every on-disk
// record, so any change to the canonical encoding or to the cached value
// types invalidates old entries instead of deserializing them wrongly.
// A change that alters optimization results bumps it too, so a cache
// directory written before it cannot keep serving the old designs.
const SchemaVersion = "thistle-cache-v2"

// Signature is the content hash of one optimization request.
type Signature [sha256.Size]byte

// String renders the signature as lowercase hex.
func (s Signature) String() string { return hex.EncodeToString(s[:]) }

// Short returns a 12-hex-digit prefix for logs and span attributes.
func (s Signature) Short() string { return s.String()[:12] }

// Param is one named scalar option folded into a signature. Values are
// pre-rendered strings (use the Param* constructors for exact numeric
// round-trips); callers must supply params in a deterministic order.
type Param struct {
	Name  string
	Value string
}

// ParamString builds a string-valued param.
func ParamString(name, v string) Param { return Param{Name: name, Value: v} }

// ParamInt builds an integer-valued param.
func ParamInt(name string, v int64) Param {
	return Param{Name: name, Value: strconv.FormatInt(v, 10)}
}

// ParamFloat builds a float-valued param with an exact round-trip
// rendering.
func ParamFloat(name string, v float64) Param {
	return Param{Name: name, Value: strconv.FormatFloat(v, 'g', -1, 64)}
}

// ParamBool builds a boolean-valued param.
func ParamBool(name string, v bool) Param {
	return Param{Name: name, Value: strconv.FormatBool(v)}
}

// Key collects everything that determines an optimization result. The
// typed fields cover the inputs shared by every consumer (the problem,
// the architecture, the criterion, the nest structure); component-
// specific options travel as ordered Params. Telemetry handles and
// worker counts must not be included: they cannot change the result.
type Key struct {
	// Component namespaces signatures per consumer ("optimize",
	// "mapper", "model"), so different result types never collide.
	Component string
	// Problem is hashed in canonical form (see package comment). May be
	// nil when the component does not solve a loop-nest problem.
	Problem *loopnest.Problem
	// Arch is hashed without its Name; all technology constants are
	// included. May be nil.
	Arch *arch.Arch
	// Criterion is the optimization objective.
	Criterion model.Criterion
	// Nest is the tiling-structure configuration.
	Nest dataflow.StandardOptions
	// RSPlacements lists the kernel-loop placements to try (nil means
	// the caller's automatic choice, which is a function of the problem
	// and therefore safe to hash as empty).
	RSPlacements []dataflow.RSPlacement
	// Params carries the remaining options in caller-defined order.
	Params []Param
}

// Signature computes the content hash of the key: the key's byte
// stream (see hasher), written into one buffer and hashed once.
func (k Key) Signature() Signature {
	h := hasher{buf: make([]byte, 0, 2048)}
	h.str("schema", SchemaVersion)
	h.str("component", k.Component)
	h.problem(k.Problem)
	h.arch(k.Arch)
	h.i64("criterion", int64(k.Criterion))
	h.i64("nest.rs", int64(k.Nest.RS))
	h.i64("nest.untiled_max", k.Nest.UntiledMax)
	h.bool("nest.reduction_multicast", k.Nest.ReductionMulticast)
	h.i64("rs_placements", int64(len(k.RSPlacements)))
	for _, rs := range k.RSPlacements {
		h.i64("rs", int64(rs))
	}
	h.i64("params", int64(len(k.Params)))
	for _, p := range k.Params {
		h.param(p)
	}
	return sha256.Sum256(h.buf)
}

// hasher builds a signature's byte stream. Every field is its tag
// followed by its value, each length-delimited so adjacent fields can
// never be confused for one another. A string (tag or value) is its
// byte length as 8 big-endian bytes, then its bytes; an integer is 8
// big-endian bytes, a float its IEEE-754 bits as one, a bool the
// integer 0 or 1. On-disk records are named by the hashes of these
// streams, so the fields, their order and their bytes are a contract:
// change any of them only together with SchemaVersion.
type hasher struct {
	buf []byte
}

func (w *hasher) u64(v uint64) { w.buf = binary.BigEndian.AppendUint64(w.buf, v) }

func (w *hasher) text(s string) {
	w.u64(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

func (w *hasher) raw(b []byte) {
	w.u64(uint64(len(b)))
	w.buf = append(w.buf, b...)
}

func (w *hasher) str(tag, v string) {
	w.text(tag)
	w.text(v)
}

func (w *hasher) i64(tag string, v int64) {
	w.text(tag)
	w.u64(uint64(v))
}

func (w *hasher) f64(tag string, v float64) {
	w.text(tag)
	w.u64(math.Float64bits(v))
}

func (w *hasher) bool(tag string, v bool) {
	if v {
		w.i64(tag, 1)
	} else {
		w.i64(tag, 0)
	}
}

// param writes a Param under the tag "param.<name>".
func (w *hasher) param(p Param) {
	const prefix = "param."
	w.u64(uint64(len(prefix) + len(p.Name)))
	w.buf = append(w.buf, prefix...)
	w.buf = append(w.buf, p.Name...)
	w.text(p.Value)
}

// problem hashes the canonical form of a loop-nest problem. The
// problem's name and its tensors' names are dropped; tensors, their
// dims, and the terms within each dim are sorted into a canonical
// order (none of these orders can affect data volumes, and the cached
// mapping references iterators only, never tensors). Iterator order
// and extents are preserved — mapping trip counts and permutations are
// indexed by iterator position — and each iterator contributes its
// kernel role ("r"/"s" iterators stay untiled in the standard nest)
// instead of its name.
func (w *hasher) problem(p *loopnest.Problem) {
	if p == nil {
		w.str("problem", "<nil>")
		return
	}
	w.i64("iters", int64(len(p.Iters)))
	for _, it := range p.Iters {
		role := ""
		if it.Name == "r" || it.Name == "s" {
			role = it.Name
		}
		w.str("iter.role", role)
		w.i64("iter.extent", it.Extent)
	}
	a, encs := canonicalTensors(make([]byte, 0, 512), make([]span, 0, 32), p.Tensors)
	w.i64("tensors", int64(len(encs)))
	for _, e := range encs {
		w.text("tensor")
		w.raw(a[e.lo:e.hi])
	}
}

// span is a rendering's position in canonicalTensors' buffer.
type span struct{ lo, hi int }

// canonicalTensors renders each tensor as an order-independent string,
// appending the renderings to a, and returns their spans sorted. A
// tensor renders as its read-write flag ("ro" or "rw"), a colon, and
// its dims joined by "|"; a dim renders as its terms "<iter>*<stride>"
// joined by "+". Terms are sorted within each dim, dims within the
// tensor and the tensors themselves, all bytewise. sp is scratch.
func canonicalTensors(a []byte, sp []span, ts []loopnest.Tensor) ([]byte, []span) {
	for _, t := range ts {
		dims := len(sp)
		for _, d := range t.Dims {
			terms := len(sp)
			for _, tm := range d.Terms {
				lo := len(a)
				a = strconv.AppendInt(a, int64(tm.Iter), 10)
				a = append(a, '*')
				a = strconv.AppendInt(a, tm.Stride, 10)
				sp = append(sp, span{lo, len(a)})
			}
			var dim span
			a, dim = joinSorted(a, sp[terms:], "", '+')
			sp = append(sp[:terms], dim)
		}
		flag := "ro:"
		if t.ReadWrite {
			flag = "rw:"
		}
		var enc span
		a, enc = joinSorted(a, sp[dims:], flag, '|')
		sp = append(sp[:dims], enc)
	}
	sortSpans(a, sp)
	return a, sp
}

// joinSorted sorts parts bytewise and appends prefix and then the parts,
// separated by sep, to a; it returns a and the span of what it appended.
func joinSorted(a []byte, parts []span, prefix string, sep byte) ([]byte, span) {
	sortSpans(a, parts)
	lo := len(a)
	a = append(a, prefix...)
	for i, p := range parts {
		if i > 0 {
			a = append(a, sep)
		}
		a = append(a, a[p.lo:p.hi]...)
	}
	return a, span{lo, len(a)}
}

// sortSpans sorts spans of a by their bytes.
func sortSpans(a []byte, sp []span) {
	slices.SortFunc(sp, func(x, y span) int { return bytes.Compare(a[x.lo:x.hi], a[y.lo:y.hi]) })
}

// arch hashes an architecture configuration without its display name.
func (w *hasher) arch(a *arch.Arch) {
	if a == nil {
		w.str("arch", "<nil>")
		return
	}
	w.i64("arch.pes", a.PEs)
	w.i64("arch.regs", a.Regs)
	w.i64("arch.sram", a.SRAM)
	t := a.Tech
	w.f64("tech.area_mac", t.AreaMAC)
	w.f64("tech.area_register", t.AreaRegister)
	w.f64("tech.area_sram_word", t.AreaSRAMWord)
	w.f64("tech.energy_mac", t.EnergyMAC)
	w.f64("tech.sigma_r", t.SigmaR)
	w.f64("tech.sigma_s", t.SigmaS)
	w.f64("tech.energy_dram", t.EnergyDRAM)
	w.f64("tech.energy_noc_hop", t.EnergyNoCHop)
	w.f64("tech.bw_dram", t.BWDRAM)
	w.f64("tech.bw_sram", t.BWSRAM)
	w.f64("tech.bw_reg", t.BWReg)
	w.i64("tech.word_bits", int64(t.WordBits))
}
