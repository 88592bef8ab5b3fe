package core

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/arch"
	"repro/internal/cache"
	"repro/internal/loopnest"
	"repro/internal/model"
)

// smallConv builds a small conv layer that still exercises the full
// flow (multiple permutation classes, both RS placements) quickly.
func smallConv(t *testing.T, name string) *loopnest.Problem {
	t.Helper()
	p, err := loopnest.Conv2D(loopnest.Conv2DConfig{
		Name: name, N: 1, K: 16, C: 16, H: 7, W: 7, R: 3, S: 3,
		StrideX: 1, StrideY: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestOptimizeCacheStats is the regression test for the dedup-aware
// stats: a cached run must keep reporting the original search effort
// (PairsSolved, Candidates) while reporting zero fresh solves, and a
// fresh run must report both counters equal.
func TestOptimizeCacheStats(t *testing.T) {
	p := smallConv(t, "cached_layer")
	a := arch.Eyeriss()
	sc := NewSolveCache(cache.Options{})
	opts := Options{Criterion: model.MinEnergy, Mode: FixedArch, Arch: &a, Cache: sc}

	r1, err := Optimize(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Stats.FromCache {
		t.Error("first run reported FromCache")
	}
	if r1.Stats.PairsSolved == 0 {
		t.Fatal("first run solved no GPs")
	}
	if r1.Stats.FreshSolves != r1.Stats.PairsSolved {
		t.Errorf("fresh run: FreshSolves = %d, want PairsSolved = %d",
			r1.Stats.FreshSolves, r1.Stats.PairsSolved)
	}

	// Same shape under a different layer name: the cross-layer dedup
	// case must hit.
	r2, err := Optimize(smallConv(t, "same_shape_other_name"), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Stats.FromCache {
		t.Fatal("second run did not hit the cache")
	}
	if r2.Stats.FreshSolves != 0 {
		t.Errorf("cached run: FreshSolves = %d, want 0", r2.Stats.FreshSolves)
	}
	if r2.Stats.PairsSolved != r1.Stats.PairsSolved {
		t.Errorf("cached run must preserve the original effort: PairsSolved = %d, want %d",
			r2.Stats.PairsSolved, r1.Stats.PairsSolved)
	}
	if r2.Stats.Candidates != r1.Stats.Candidates {
		t.Errorf("cached run: Candidates = %d, want %d", r2.Stats.Candidates, r1.Stats.Candidates)
	}
	if s := sc.Stats(); s.Hits != 1 || s.Misses != 1 {
		t.Errorf("cache stats = %+v, want 1 hit / 1 miss", s)
	}

	// The cached entry itself must stay unpolluted by the per-caller
	// stats copy: a third request still reports the original effort.
	r3, err := Optimize(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !r3.Stats.FromCache || r3.Stats.PairsSolved != r1.Stats.PairsSolved {
		t.Errorf("third run stats = %+v", r3.Stats)
	}
}

// TestOptimizeCacheIdenticalResults: with the cache on (miss then hit)
// and off, the selected design must be exactly the same.
func TestOptimizeCacheIdenticalResults(t *testing.T) {
	p := smallConv(t, "identical")
	a := arch.Eyeriss()
	base := Options{Criterion: model.MinEnergy, Mode: FixedArch, Arch: &a}

	off, err := Optimize(p, base)
	if err != nil {
		t.Fatal(err)
	}
	withCache := base
	withCache.Cache = NewSolveCache(cache.Options{})
	miss, err := Optimize(p, withCache)
	if err != nil {
		t.Fatal(err)
	}
	hit, err := Optimize(p, withCache)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		got  *Result
	}{{"cold cache", miss}, {"warm cache", hit}} {
		if !reflect.DeepEqual(off.Best.Report, tc.got.Best.Report) {
			t.Errorf("%s: report differs: %+v vs %+v", tc.name, off.Best.Report, tc.got.Best.Report)
		}
		if !reflect.DeepEqual(off.Best.Mapping, tc.got.Best.Mapping) {
			t.Errorf("%s: mapping differs", tc.name)
		}
		if off.Best.Arch != tc.got.Best.Arch {
			t.Errorf("%s: arch differs: %v vs %v", tc.name, off.Best.Arch, tc.got.Best.Arch)
		}
	}

	// A Result read back from a disk-tier record, through a fresh cache
	// over the same directory as in a new process, is the cold Result
	// in full. Both carry the signature, which the record itself must
	// not: it is recorded on the hit.
	sig := SolveSignature(p, base)
	if miss.Signature != sig || hit.Signature != sig {
		t.Errorf("recorded signatures %s (cold), %s (hit), want %s", miss.Signature, hit.Signature, sig)
	}
	dir := t.TempDir()
	onDisk := base
	onDisk.Cache = NewSolveCache(cache.Options{Dir: dir})
	cold, err := Optimize(p, onDisk)
	if err != nil {
		t.Fatal(err)
	}
	onDisk.Cache = NewSolveCache(cache.Options{Dir: dir})
	fromDisk, err := Optimize(p, onDisk)
	if err != nil {
		t.Fatal(err)
	}
	if st := onDisk.Cache.Stats(); st.DiskHits != 1 {
		t.Fatalf("second cache: %+v, want one disk hit", st)
	}
	want := *cold
	want.Stats.FreshSolves = 0
	want.Stats.FromCache = true
	if !reflect.DeepEqual(&want, fromDisk) {
		t.Errorf("disk-tier result differs from the cold one:\n%+v\n%+v", fromDisk, &want)
	}
	if rec, _ := onDisk.Cache.Get(sig); rec == nil || rec.Signature != (cache.Signature{}) {
		t.Errorf("disk record value carries signature %v, want none", rec)
	}
}

// TestOptimizeCacheFromContext: a cache attached to the context is
// picked up when Options.Cache is unset.
func TestOptimizeCacheFromContext(t *testing.T) {
	p := smallConv(t, "ctx_layer")
	a := arch.Eyeriss()
	sc := NewSolveCache(cache.Options{})
	ctx := ContextWithCache(context.Background(), sc)
	opts := Options{Criterion: model.MinEnergy, Mode: FixedArch, Arch: &a}
	if _, err := OptimizeContext(ctx, p, opts); err != nil {
		t.Fatal(err)
	}
	r, err := OptimizeContext(ctx, p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Stats.FromCache {
		t.Error("context-attached cache was not used")
	}
	// And ContextWithCache(nil) must be a no-op.
	if got := CacheFromContext(ContextWithCache(context.Background(), nil)); got != nil {
		t.Error("nil cache attached to context")
	}
}

// TestSolveSignatureOptionSensitivity: option changes that alter the
// result must change the signature; resolved defaults must not.
func TestSolveSignatureOptionSensitivity(t *testing.T) {
	p := smallConv(t, "sig")
	a := arch.Eyeriss()
	base := Options{Criterion: model.MinEnergy, Mode: FixedArch, Arch: &a}
	s0 := SolveSignature(p, base)

	explicit := base
	explicit.NDiv = 2 // the MinEnergy default
	explicit.TopClasses = 3
	if SolveSignature(p, explicit) != s0 {
		t.Error("explicitly spelling out defaults changed the signature")
	}

	ndiv := base
	ndiv.NDiv = 3
	if SolveSignature(p, ndiv) == s0 {
		t.Error("NDiv change did not change the signature")
	}

	codesign := base
	codesign.Mode = CoDesign
	if SolveSignature(p, codesign) == s0 {
		t.Error("mode change did not change the signature")
	}

	crit := base
	crit.Criterion = model.MinDelay
	if SolveSignature(p, crit) == s0 {
		t.Error("criterion change did not change the signature")
	}

	// Parallelism must NOT be part of the signature.
	par := base
	par.Parallel = 1
	if SolveSignature(p, par) != s0 {
		t.Error("worker count changed the signature")
	}
}
