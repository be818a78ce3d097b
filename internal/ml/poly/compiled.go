package poly

import "fmt"

// A compiled expansion is a prefix chain: term 0 is the constant 1, and
// every other term i is term[parent(i)]·x[idx(i)], where parent(i) has
// term i's powers with the last nonzero exponent decremented. Evaluating
// the terms in order costs one multiply each, and every value is
// bit-for-bit Term.Eval's: Term.Eval starts from 1 and multiplies the
// factors in feature order, powers as repeated multiplies, so its last
// multiply is by x[idx(i)] and everything before it is exactly the
// parent's sequence. NewExpansionCapped's degree-then-lex order always
// puts the parent first, because the exponent caps are monotone: a
// decremented term stays under them. The equivalence tests pin the chain
// against the live Term.Eval.

// link is one chain step: the term's value is value[parent]·x[idx].
type link struct{ parent, idx int32 }

// chain is the compiled expansion, one link per term; link 0 (the
// constant term) is unused.
type chain []link

// buildChain compiles terms into a chain, rejecting any term set the
// chain cannot evaluate: a term that is not nFeatures non-negative powers
// of total degree at most maxDegree, a constant term anywhere but first,
// or a term whose parent is not an earlier term. The parent search scans
// back from the term, which in NewExpansionCapped's order stops within
// the previous degree's block; it allocates nothing but the chain, since
// every fit and cross-validation fold compiles its own expansion.
func buildChain(nFeatures, maxDegree int, terms []Term) (chain, error) {
	if nFeatures < 1 {
		return nil, fmt.Errorf("poly: expansion over %d features", nFeatures)
	}
	if len(terms) == 0 {
		return nil, fmt.Errorf("poly: expansion has no terms")
	}
	c := make(chain, len(terms))
	for i, t := range terms {
		if len(t.Powers) != nFeatures {
			return nil, fmt.Errorf("poly: term %d has %d powers for %d features", i, len(t.Powers), nFeatures)
		}
		deg, last := 0, -1
		for j, p := range t.Powers {
			if p < 0 {
				return nil, fmt.Errorf("poly: term %d has negative power %d", i, p)
			}
			deg += p
			if p > 0 {
				last = j
			}
		}
		if deg > maxDegree {
			return nil, fmt.Errorf("poly: term %d (%s) has degree %d, expansion maximum %d", i, t, deg, maxDegree)
		}
		if (i == 0) != (last < 0) {
			return nil, fmt.Errorf("poly: term %d (%s): the constant term must be term 0, and only it", i, t)
		}
		if i == 0 {
			continue
		}
		parent := i - 1
		for parent >= 0 && !isParent(terms[parent].Powers, t.Powers, last) {
			parent--
		}
		if parent < 0 {
			return nil, fmt.Errorf("poly: term %d (%s) has no earlier chain parent", i, t)
		}
		c[i] = link{parent: int32(parent), idx: int32(last)}
	}
	return c, nil
}

// isParent reports whether p is q with q[last] decremented. Earlier terms
// were checked to have q's length.
func isParent(p, q []int, last int) bool {
	for j, want := range q {
		if j == last {
			want--
		}
		if p[j] != want {
			return false
		}
	}
	return true
}

// eval writes every term's value at x into v (len(v) >= len(c)).
func (c chain) eval(v, x []float64) {
	v = v[:len(c)]
	v[0] = 1
	for i := 1; i < len(c); i++ {
		l := c[i]
		v[i] = v[l.parent] * x[l.idx]
	}
}

// dot returns Σ coeffs[i]·term_i(x), accumulated in term order — the sum
// Model.Predict has always computed — using v (len(v) >= len(c)) for the
// term values the chain reads back.
func (c chain) dot(coeffs, v, x []float64) float64 {
	v, coeffs = v[:len(c)], coeffs[:len(c)]
	v[0] = 1
	s := 0 + coeffs[0] // 0 + c·1 for the constant term: a -0 coefficient sums to +0
	for i := 1; i < len(c); i++ {
		l := c[i]
		t := v[l.parent] * x[l.idx]
		v[i] = t
		s += coeffs[i] * t
	}
	return s
}
