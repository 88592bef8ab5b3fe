package expr

import (
	"bytes"
	"slices"
	"strconv"
)

// KeyBuf renders canonical product keys (Product.Key) and reuses its
// scratch across calls. EnumerateClasses keys each tensor's data-volume
// product once per distinct DV signature (and once more per symmetry
// involution): a KeyBuf copies each factor into reusable scratch arrays,
// canonicalizes in place, and renders with strconv append calls, so
// steady-state key construction performs no allocations beyond dst.
//
// With a non-nil subst the bytes are exactly
// Product.RenameVars(subst).Key(). A KeyBuf is not safe for concurrent
// use.
type KeyBuf struct {
	terms     []Term   // term arena backing the scratch factor copies
	poly      Poly     // scratch factor copy (canonicalized in place)
	monoTerms []Term   // scratch for the merged single-monomial factor
	tmp       Poly     // scratch for the final monomial canon
	keys      [][]byte // per-poly-factor key buffers, reused across calls
	keyViews  [][]byte // the populated prefix of keys, sorted per call
}

// AppendProductKey appends the canonical key of pr — with every variable
// v first replaced by subst[v] when subst is non-nil — to dst and
// returns the extended slice: the single-monomial factors merged into
// one leading monomial, then each other factor's key in sorted order,
// all joined by '|'. The result is byte-for-byte identical to
// pr.RenameVars(subst).Key() (or pr.Key() for a nil subst).
func (kb *KeyBuf) AppendProductKey(dst []byte, pr Product, subst map[VarID]VarID) []byte {
	// Merged single-monomial factor, seeded with the constant 1.
	mono := Monomial{Coeff: 1, Terms: kb.monoTerms[:0]}
	kb.keyViews = kb.keyViews[:0]
	for _, f := range pr.Factors {
		g := kb.copyFactor(f, subst)
		g.Canon()
		if g.IsMonomial() {
			// Mirror mono = mono.Mul(g[0]): append both term lists, then
			// canonicalize, so exponent merging happens in the same order
			// (and therefore with the same rounding) as Monomial.Mul.
			mono.Coeff *= g[0].Coeff
			mono.Terms = append(mono.Terms, g[0].Terms...)
			mono.Canon()
			continue
		}
		ki := len(kb.keyViews)
		if ki == len(kb.keys) {
			kb.keys = append(kb.keys, nil)
		}
		kb.keys[ki] = appendPolyKey(kb.keys[ki][:0], g)
		kb.keyViews = append(kb.keyViews, kb.keys[ki])
	}
	kb.monoTerms = mono.Terms[:0]
	slices.SortFunc(kb.keyViews, bytes.Compare)
	// Canonicalize the merged monomial as a one-term Poly, which drops it
	// entirely when its coefficient is zero.
	kb.tmp = append(kb.tmp[:0], mono)
	kb.tmp.Canon()
	dst = appendPolyKey(dst, kb.tmp)
	for _, k := range kb.keyViews {
		dst = append(dst, '|')
		dst = append(dst, k...)
	}
	return dst
}

// copyFactor deep-copies f into the KeyBuf scratch arena, applying the
// variable substitution. The returned Poly is owned by the KeyBuf and
// valid until the next copyFactor call's canonicalization completes.
func (kb *KeyBuf) copyFactor(f Poly, subst map[VarID]VarID) Poly {
	kb.poly = kb.poly[:0]
	kb.terms = kb.terms[:0]
	off := 0
	for _, m := range f {
		for _, t := range m.Terms {
			if subst != nil {
				if nv, ok := subst[t.Var]; ok {
					t.Var = nv
				}
			}
			kb.terms = append(kb.terms, t)
		}
		kb.poly = append(kb.poly, Monomial{Coeff: m.Coeff, Terms: kb.terms[off:len(kb.terms):len(kb.terms)]})
		off = len(kb.terms)
	}
	// Growth of kb.terms may have copied earlier monomials' backing; fix
	// the views up so every monomial aliases the final arena.
	off = 0
	for i := range kb.poly {
		n := len(kb.poly[i].Terms)
		kb.poly[i].Terms = kb.terms[off : off+n : off+n]
		off += n
	}
	return kb.poly
}

// appendPolyKey renders the canonical polynomial q as Poly.Key's format
// "coeff@var^exp…+…", floats as strconv's shortest 'g' form (fmt's %g).
func appendPolyKey(dst []byte, q Poly) []byte {
	for i, m := range q {
		if i > 0 {
			dst = append(dst, '+')
		}
		dst = strconv.AppendFloat(dst, m.Coeff, 'g', -1, 64)
		for _, t := range m.Terms {
			dst = append(dst, '@')
			dst = strconv.AppendInt(dst, int64(t.Var), 10)
			dst = append(dst, '^')
			dst = strconv.AppendFloat(dst, t.Exp, 'g', -1, 64)
		}
	}
	return dst
}
