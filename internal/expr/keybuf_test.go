package expr

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// fmtPolyKey and fmtProductKey render keys the direct way, with fmt and
// string sorting: the oracle for the strconv renderer behind Poly.Key,
// Product.Key and KeyBuf.
func fmtPolyKey(p Poly) string {
	q := p.Clone()
	q.Canon()
	var b strings.Builder
	for i, m := range q {
		if i > 0 {
			b.WriteByte('+')
		}
		fmt.Fprintf(&b, "%g", m.Coeff)
		for _, t := range m.Terms {
			fmt.Fprintf(&b, "@%d^%g", t.Var, t.Exp)
		}
	}
	return b.String()
}

func fmtProductKey(pr Product) string {
	mono := Const(1)
	var polys []string
	for _, f := range pr.Factors {
		g := f.Clone()
		g.Canon()
		if g.IsMonomial() {
			mono = mono.Mul(g[0])
			continue
		}
		polys = append(polys, fmtPolyKey(g))
	}
	sort.Strings(polys)
	var b strings.Builder
	b.WriteString(fmtPolyKey(Poly{mono}))
	for _, s := range polys {
		b.WriteByte('|')
		b.WriteString(s)
	}
	return b.String()
}

// randProduct builds a random factored expression shaped like the
// dataflow DF/DV products: monomial factors plus small signomial
// factors with occasional duplicate variables and negative constants.
func randProduct(rng *rand.Rand) Product {
	pr := Product{}
	nf := 1 + rng.Intn(6)
	for f := 0; f < nf; f++ {
		nm := 1 + rng.Intn(3)
		var p Poly
		for m := 0; m < nm; m++ {
			mono := Monomial{Coeff: float64(rng.Intn(9) - 3)}
			if mono.Coeff == 0 {
				mono.Coeff = 1.5
			}
			for t := 0; t < rng.Intn(4); t++ {
				mono.Terms = append(mono.Terms, Term{
					Var: VarID(rng.Intn(8)),
					Exp: float64(1 + rng.Intn(3)),
				})
			}
			p = append(p, mono)
		}
		pr.Factors = append(pr.Factors, p)
	}
	return pr
}

// TestKeyBufMatchesProductKey quick-checks that the allocation-free key
// builder, and Poly.Key and Product.Key through it, render the fmt
// oracle's bytes, also after RenameVars — the property EnumerateClasses'
// dedup depends on.
func TestKeyBufMatchesProductKey(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	subst := map[VarID]VarID{0: 1, 1: 0, 4: 5, 5: 4}
	var kb KeyBuf
	var buf []byte
	for i := 0; i < 500; i++ {
		pr := randProduct(rng)
		want := fmtProductKey(pr)
		buf = kb.AppendProductKey(buf[:0], pr, nil)
		if got := string(buf); got != want {
			t.Fatalf("case %d: AppendProductKey = %q, oracle %q", i, got, want)
		}
		if got := pr.Key(); got != want {
			t.Fatalf("case %d: Product.Key = %q, oracle %q", i, got, want)
		}
		want = fmtProductKey(pr.RenameVars(subst))
		buf = kb.AppendProductKey(buf[:0], pr, subst)
		if got := string(buf); got != want {
			t.Fatalf("case %d (renamed): AppendProductKey = %q, oracle %q", i, got, want)
		}
		for fi, f := range pr.Factors {
			if got, want := f.Key(), fmtPolyKey(f); got != want {
				t.Fatalf("case %d factor %d: Poly.Key = %q, oracle %q", i, fi, got, want)
			}
		}
	}
}

// TestKeyBufPrefixAppend verifies the builder appends to (rather than
// replaces) dst, which EnumerateClasses relies on when joining
// per-tensor keys with ';'.
func TestKeyBufPrefixAppend(t *testing.T) {
	pr := ProductOf(PolyFrom(MonoPow(2, 3, 1)))
	var kb KeyBuf
	out := kb.AppendProductKey([]byte("pre;"), pr, nil)
	want := "pre;" + fmtProductKey(pr)
	if string(out) != want {
		t.Fatalf("got %q, want %q", out, want)
	}
}
