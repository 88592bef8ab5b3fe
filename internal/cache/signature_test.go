package cache

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/dataflow"
	"repro/internal/loopnest"
	"repro/internal/model"
)

// baseKey builds a representative optimize-style key over a conv layer.
func baseKey(t *testing.T) Key {
	t.Helper()
	p, err := loopnest.Conv2D(loopnest.Conv2DConfig{
		Name: "base", N: 1, K: 64, C: 32, H: 28, W: 28, R: 3, S: 3,
		StrideX: 1, StrideY: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	a := arch.Eyeriss()
	return Key{
		Component: "optimize",
		Problem:   p,
		Arch:      &a,
		Criterion: model.MinEnergy,
		Params: []Param{
			ParamString("mode", "fixedarch"),
			ParamInt("ndiv", 2),
			ParamFloat("solver.tol", 1e-6),
			ParamBool("disable_pruning", false),
		},
	}
}

func TestSignatureDeterministic(t *testing.T) {
	k := baseKey(t)
	if k.Signature() != k.Signature() {
		t.Fatal("signature not deterministic")
	}
	if len(k.Signature().String()) != 64 {
		t.Fatalf("hex length = %d, want 64", len(k.Signature().String()))
	}
}

// TestSignatureRenameInvariant: names of the problem, its tensors, and
// its non-kernel iterators are representation, not semantics.
func TestSignatureRenameInvariant(t *testing.T) {
	k1 := baseKey(t)
	k2 := baseKey(t)
	p2 := *k2.Problem
	p2.Name = "renamed_layer_with_same_shape"
	tensors := append([]loopnest.Tensor(nil), p2.Tensors...)
	for i := range tensors {
		tensors[i].Name = tensors[i].Name + "_x"
	}
	p2.Tensors = tensors
	iters := append([]loopnest.Iter(nil), p2.Iters...)
	for i := range iters {
		if iters[i].Name != "r" && iters[i].Name != "s" {
			iters[i].Name = "dim_" + iters[i].Name
		}
	}
	p2.Iters = iters
	k2.Problem = &p2
	if k1.Signature() != k2.Signature() {
		t.Error("renaming problem/tensors/non-kernel iterators changed the signature")
	}
	// Renaming the architecture must not matter either.
	a := *k2.Arch
	a.Name = "definitely_not_eyeriss"
	k2.Arch = &a
	if k1.Signature() != k2.Signature() {
		t.Error("renaming the architecture changed the signature")
	}
}

// TestSignatureReorderInvariant: tensor order, dim order within a
// tensor, and term order within a subscript cannot affect data volumes
// (and the cached mapping never references tensors), so they must not
// affect the signature.
func TestSignatureReorderInvariant(t *testing.T) {
	k1 := baseKey(t)
	k2 := baseKey(t)
	p2 := *k2.Problem

	// Reverse the tensor list.
	tensors := append([]loopnest.Tensor(nil), p2.Tensors...)
	for i, j := 0, len(tensors)-1; i < j; i, j = i+1, j-1 {
		tensors[i], tensors[j] = tensors[j], tensors[i]
	}
	// Reverse the dims of the first tensor and the terms of its first
	// multi-term subscript (the strided input dims of the convolution).
	t0 := tensors[0]
	dims := append([]loopnest.IndexExpr(nil), t0.Dims...)
	for i, j := 0, len(dims)-1; i < j; i, j = i+1, j-1 {
		dims[i], dims[j] = dims[j], dims[i]
	}
	for di := range dims {
		if len(dims[di].Terms) > 1 {
			terms := append([]loopnest.IndexTerm(nil), dims[di].Terms...)
			terms[0], terms[1] = terms[1], terms[0]
			dims[di].Terms = terms
		}
	}
	t0.Dims = dims
	tensors[0] = t0
	p2.Tensors = tensors
	k2.Problem = &p2
	if k1.Signature() != k2.Signature() {
		t.Error("reordering tensors/dims/terms changed the signature")
	}
}

// TestSignatureSemanticChanges: every semantic difference must produce
// a distinct signature.
func TestSignatureSemanticChanges(t *testing.T) {
	base := baseKey(t).Signature()
	seen := map[Signature]string{base: "base"}
	check := func(label string, k Key) {
		t.Helper()
		sig := k.Signature()
		if prev, dup := seen[sig]; dup {
			t.Errorf("%s collides with %s", label, prev)
		}
		seen[sig] = label
	}

	k := baseKey(t)
	p := *k.Problem
	iters := append([]loopnest.Iter(nil), p.Iters...)
	iters[loopnest.ConvK].Extent = 65
	p.Iters = iters
	k.Problem = &p
	check("extent change", k)

	k = baseKey(t)
	p = *k.Problem
	tensors := append([]loopnest.Tensor(nil), p.Tensors...)
	in := tensors[0]
	dims := append([]loopnest.IndexExpr(nil), in.Dims...)
	terms := append([]loopnest.IndexTerm(nil), dims[2].Terms...)
	terms[0].Stride = 2 // stride-2 input subscript
	dims[2].Terms = terms
	in.Dims = dims
	tensors[0] = in
	p.Tensors = tensors
	k.Problem = &p
	check("stride change", k)

	k = baseKey(t)
	p = *k.Problem
	tensors = append([]loopnest.Tensor(nil), p.Tensors...)
	tensors[0].ReadWrite = true
	p.Tensors = tensors
	k.Problem = &p
	check("read-write flag change", k)

	// Renaming a kernel iterator away from "r" changes its untiled
	// role in the standard nest, so it is a semantic change.
	k = baseKey(t)
	p = *k.Problem
	iters = append([]loopnest.Iter(nil), p.Iters...)
	iters[loopnest.ConvR].Name = "q"
	p.Iters = iters
	k.Problem = &p
	check("kernel-role change", k)

	k = baseKey(t)
	a := *k.Arch
	a.Regs = 256
	k.Arch = &a
	check("register count change", k)

	k = baseKey(t)
	a = *k.Arch
	a.Tech.SigmaS = a.Tech.SigmaS * 2
	k.Arch = &a
	check("technology constant change", k)

	k = baseKey(t)
	k.Criterion = model.MinDelay
	check("criterion change", k)

	k = baseKey(t)
	k.Nest.RS = dataflow.RSAtLevel1
	check("nest RS change", k)

	k = baseKey(t)
	k.RSPlacements = []dataflow.RSPlacement{dataflow.RSAtRegister}
	check("rs placements change", k)

	k = baseKey(t)
	k.Component = "mapper"
	check("component change", k)

	k = baseKey(t)
	k.Params[1] = ParamInt("ndiv", 3)
	check("ndiv change", k)

	k = baseKey(t)
	k.Params[2] = ParamFloat("solver.tol", 1e-8)
	check("solver tolerance change", k)

	k = baseKey(t)
	k.Params[3] = ParamBool("disable_pruning", true)
	check("pruning ablation change", k)
}

// TestSignatureCrossLayerDedup: two distinct Table-II-style layers with
// the same shape but different names — the cross-layer dedup case —
// hash equal; a different shape does not.
func TestSignatureCrossLayerDedup(t *testing.T) {
	mk := func(name string, k int64) *loopnest.Problem {
		p, err := loopnest.Conv2D(loopnest.Conv2DConfig{
			Name: name, N: 1, K: k, C: 64, H: 14, W: 14, R: 3, S: 3,
			StrideX: 1, StrideY: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	key := baseKey(t)
	k1, k2, k3 := key, key, key
	k1.Problem = mk("stage2_block1", 256)
	k2.Problem = mk("stage2_block7", 256)
	k3.Problem = mk("stage3_block1", 512)
	if k1.Signature() != k2.Signature() {
		t.Error("same-shape layers with different names should share a signature")
	}
	if k1.Signature() == k3.Signature() {
		t.Error("different-shape layers must not share a signature")
	}
}

// TestSignatureIntermediateBuffers: an architecture's intermediate
// buffers are semantics, each of their figures, but not their names;
// adding one changes the signature, and a key without any hashes as the
// paper's memory always has (TestSignatureSemanticChanges' base).
func TestSignatureIntermediateBuffers(t *testing.T) {
	withMid := func(b arch.Buffer) Key {
		k := baseKey(t)
		a := *k.Arch
		a.Mid = []arch.Buffer{b}
		k.Arch = &a
		return k
	}
	spad := arch.Buffer{Name: "spad", Words: 2048, Energy: 0.8, BW: 8, PerPE: true}
	base := withMid(spad).Signature()
	if base == baseKey(t).Signature() {
		t.Error("adding an intermediate buffer left the signature unchanged")
	}
	renamed := spad
	renamed.Name = "scratchpad"
	if withMid(renamed).Signature() != base {
		t.Error("renaming an intermediate buffer changed the signature")
	}
	seen := map[Signature]string{base: "base"}
	for label, change := range map[string]func(*arch.Buffer){
		"words":  func(b *arch.Buffer) { b.Words = 4096 },
		"energy": func(b *arch.Buffer) { b.Energy = 0.9 },
		"bw":     func(b *arch.Buffer) { b.BW = 16 },
		"per-PE": func(b *arch.Buffer) { b.PerPE = false },
	} {
		b := spad
		change(&b)
		sig := withMid(b).Signature()
		if prev, dup := seen[sig]; dup {
			t.Errorf("a buffer %s change collides with %s", label, prev)
		}
		seen[sig] = label
	}
}
