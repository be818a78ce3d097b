// Package poly implements polynomial regression in the style OPPROX uses
// (paper §3.6–3.7): full polynomial feature expansion with interaction
// terms, ordinary/ridge least squares, R² scoring, k-fold cross validation,
// and an automatic degree search that raises the degree until a target
// cross-validated R² is reached.
package poly

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"opprox/internal/ml/linalg"
)

// Term is one monomial in the expansion: Powers[i] is the exponent of input
// feature i. The constant term has all zero powers.
type Term struct {
	Powers []int
}

// Degree returns the total degree of the term.
func (t Term) Degree() int {
	d := 0
	for _, p := range t.Powers {
		d += p
	}
	return d
}

// String renders the term like "x0^2*x2".
func (t Term) String() string {
	var parts []string
	for i, p := range t.Powers {
		switch {
		case p == 1:
			parts = append(parts, fmt.Sprintf("x%d", i))
		case p > 1:
			parts = append(parts, fmt.Sprintf("x%d^%d", i, p))
		}
	}
	if len(parts) == 0 {
		return "1"
	}
	return strings.Join(parts, "*")
}

// Eval computes the term's value at x.
func (t Term) Eval(x []float64) float64 {
	v := 1.0
	for i, p := range t.Powers {
		for k := 0; k < p; k++ {
			v *= x[i]
		}
	}
	return v
}

// Expansion enumerates all monomials over nFeatures inputs with total
// degree <= degree, in a deterministic order: by total degree, then
// lexicographically by powers. The constant term comes first.
type Expansion struct {
	NFeatures int
	MaxDegree int
	Terms     []Term

	// links is the compiled prefix chain the fast paths evaluate. It is
	// built lazily (and exactly once) so expansions reconstructed from
	// persisted JSON — which never sees unexported fields — compile
	// themselves on first use; linkErr says why terms that do not form a
	// chain were rejected.
	linkOnce sync.Once
	links    chain
	linkErr  error
}

// Validate reports whether the terms form a prefix chain: NFeatures
// non-negative powers each, degree at most MaxDegree, the constant term
// first and every other term's parent (its powers with the last nonzero
// exponent decremented) earlier. NewExpansionCapped's expansions always
// do; a decoded one must pass here before it predicts. Safe for
// concurrent callers.
func (e *Expansion) Validate() error {
	e.linkOnce.Do(func() { e.links, e.linkErr = buildChain(e.NFeatures, e.MaxDegree, e.Terms) })
	return e.linkErr
}

// chain returns the compiled form of the expansion, building it on first
// use. It panics on an expansion Validate rejects.
func (e *Expansion) chain() chain {
	if err := e.Validate(); err != nil {
		panic(err)
	}
	return e.links
}

// NewExpansion builds the monomial basis for nFeatures inputs up to the
// given total degree.
func NewExpansion(nFeatures, degree int) (*Expansion, error) {
	return NewExpansionCapped(nFeatures, degree, nil)
}

// NewExpansionCapped is NewExpansion with per-feature exponent caps:
// powers[i] never exceeds caps[i] (a negative cap means unlimited). A
// feature that takes only k distinct values in the training data can
// constrain at most a degree k-1 polynomial along its axis — higher powers
// are collinear with lower ones at the sample points and oscillate freely
// between them, so callers cap exponents at k-1.
func NewExpansionCapped(nFeatures, degree int, caps []int) (*Expansion, error) {
	if nFeatures < 1 {
		return nil, fmt.Errorf("poly: need at least 1 feature, got %d", nFeatures)
	}
	if degree < 0 {
		return nil, fmt.Errorf("poly: negative degree %d", degree)
	}
	if caps != nil && len(caps) != nFeatures {
		return nil, fmt.Errorf("poly: %d caps for %d features", len(caps), nFeatures)
	}
	var terms []Term
	powers := make([]int, nFeatures)
	var gen func(idx, remaining int)
	gen = func(idx, remaining int) {
		if idx == nFeatures {
			t := Term{Powers: make([]int, nFeatures)}
			copy(t.Powers, powers)
			terms = append(terms, t)
			return
		}
		limit := remaining
		if caps != nil && caps[idx] >= 0 && caps[idx] < limit {
			limit = caps[idx]
		}
		for p := 0; p <= limit; p++ {
			powers[idx] = p
			gen(idx+1, remaining-p)
		}
		powers[idx] = 0
	}
	gen(0, degree)
	sort.Slice(terms, func(i, j int) bool {
		di, dj := terms[i].Degree(), terms[j].Degree()
		if di != dj {
			return di < dj
		}
		for k := range terms[i].Powers {
			if terms[i].Powers[k] != terms[j].Powers[k] {
				return terms[i].Powers[k] > terms[j].Powers[k]
			}
		}
		return false
	})
	return &Expansion{NFeatures: nFeatures, MaxDegree: degree, Terms: terms}, nil
}

// NumTerms returns the size of the expanded basis.
func (e *Expansion) NumTerms() int { return len(e.Terms) }

// Transform maps one input vector into the monomial basis.
func (e *Expansion) Transform(x []float64) ([]float64, error) {
	if len(x) != e.NFeatures {
		return nil, fmt.Errorf("poly: input has %d features, expansion expects %d", len(x), e.NFeatures)
	}
	out := make([]float64, len(e.Terms))
	for i, t := range e.Terms {
		out[i] = t.Eval(x)
	}
	return out, nil
}

// TransformAll maps every row of xs into the monomial basis, writing the
// flat row-major feature matrix into dst (reshaped in place, reusing its
// backing storage when possible). Rows are evaluated through the compiled
// chain; the values are bit-for-bit those of Transform.
func (e *Expansion) TransformAll(dst *linalg.Matrix, xs [][]float64) error {
	c := e.chain()
	nt := len(c)
	dst.EnsureShape(len(xs), nt)
	for i, x := range xs {
		if len(x) != e.NFeatures {
			return fmt.Errorf("poly: input %d has %d features, expansion expects %d", i, len(x), e.NFeatures)
		}
		c.eval(dst.Data[i*nt:(i+1)*nt], x)
	}
	return nil
}
