package poly

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"opprox/internal/ml/linalg"
)

// This file pins the fast-path kernels bit-for-bit against the
// interpretive slow path the package shipped with. The slow path is still
// present (Term.Eval, Expansion.Transform), so every property is checked
// against live code, not a frozen fixture: the compiled term chain,
// TransformAll, design-matrix prediction reuse, and parallel
// cross-validation must be pure loop reorderings — never arithmetic
// changes.

func randomDataset(rng *rand.Rand, n, nf int) ([][]float64, []float64) {
	xs := make([][]float64, n)
	ys := make([]float64, n)
	for i := 0; i < n; i++ {
		x := make([]float64, nf)
		for j := range x {
			// A mix of continuous and small-integer features exercises the
			// distinct-value exponent caps.
			if j%2 == 0 {
				x[j] = rng.Float64()*4 - 2
			} else {
				x[j] = float64(rng.Intn(3))
			}
		}
		xs[i] = x
		ys[i] = x[0]*x[0] - 3*x[0] + rng.NormFloat64()*0.2
	}
	return xs, ys
}

// slowPredict is the pre-compilation Predict: a fresh standardization
// buffer and interpretive Term.Eval per term.
func slowPredict(m *Model, x []float64) float64 {
	buf := make([]float64, len(x))
	standardize(buf, x, m.Mean, m.Scale)
	s := 0.0
	for i, t := range m.Expansion.Terms {
		s += m.Coeffs[i] * t.Eval(buf)
	}
	return s
}

// specialFloats are the inputs where a reordered multiply would show:
// signed zeros, infinities, NaN, subnormals and values whose powers
// overflow or underflow.
var specialFloats = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1030, -0x1p-1040,
	1, -1, 1e300, -1e-300, 3.5, -0.75,
}

// sameFloat reports whether a and b have the same bit pattern, or are
// both NaN: Go leaves a NaN's payload unspecified, and the product of two
// NaNs carries whichever operand the compiler put first (it differs
// between -race and plain builds of the same expression).
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// TestChainMatchesTermEvalBitwise: over random expansions up to degree 6,
// a third uncapped and the rest capped, and inputs drawn from the special
// values as well as ordinary ones, every chain term has Term.Eval's exact
// bit pattern, and the fused dot is the slow path's ordered sum bit for
// bit.
func TestChainMatchesTermEvalBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	draw := func() float64 {
		if rng.Intn(2) == 0 {
			return specialFloats[rng.Intn(len(specialFloats))]
		}
		return rng.NormFloat64() * 4
	}
	for trial := 0; trial < 300; trial++ {
		nf := 1 + rng.Intn(5)
		var caps []int
		if trial%3 != 0 {
			caps = make([]int, nf)
			for j := range caps {
				caps[j] = rng.Intn(5) - 1 // -1 is uncapped
			}
		}
		e, err := NewExpansionCapped(nf, rng.Intn(7), caps)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Validate(); err != nil {
			t.Fatalf("trial %d: NewExpansionCapped built an invalid chain: %v", trial, err)
		}
		c := e.chain()
		coeffs := make([]float64, e.NumTerms())
		for i := range coeffs {
			coeffs[i] = draw()
		}
		vals := make([]float64, e.NumTerms())
		x := make([]float64, nf)
		for probe := 0; probe < 8; probe++ {
			for j := range x {
				x[j] = draw()
			}
			c.eval(vals, x)
			want := 0.0
			for i, term := range e.Terms {
				v := term.Eval(x)
				if !sameFloat(vals[i], v) {
					t.Fatalf("trial %d term %s at %v: chain %x, Eval %x", trial, term, x, vals[i], v)
				}
				want += coeffs[i] * v
			}
			if got := c.dot(coeffs, vals, x); !sameFloat(got, want) {
				t.Fatalf("trial %d at %v: dot %x, ordered sum %x", trial, x, got, want)
			}
		}
	}
}

// TestExpansionValidateRejects: every term set the chain cannot evaluate
// is rejected by Validate, and the chain refuses to build from it.
func TestExpansionValidateRejects(t *testing.T) {
	terms := func(powers ...[]int) []Term {
		ts := make([]Term, len(powers))
		for i, p := range powers {
			ts[i] = Term{Powers: p}
		}
		return ts
	}
	cases := map[string]*Expansion{
		"no features":       {NFeatures: 0, MaxDegree: 1, Terms: terms([]int{})},
		"no terms":          {NFeatures: 1, MaxDegree: 1},
		"short term":        {NFeatures: 2, MaxDegree: 1, Terms: terms([]int{0, 0}, []int{1})},
		"long term":         {NFeatures: 2, MaxDegree: 1, Terms: terms([]int{0, 0}, []int{1, 0, 0})},
		"negative power":    {NFeatures: 2, MaxDegree: 1, Terms: terms([]int{0, 0}, []int{-1, 1})},
		"degree over max":   {NFeatures: 1, MaxDegree: 1, Terms: terms([]int{0}, []int{1}, []int{2})},
		"constant not 0":    {NFeatures: 1, MaxDegree: 1, Terms: terms([]int{1}, []int{0})},
		"second constant":   {NFeatures: 1, MaxDegree: 1, Terms: terms([]int{0}, []int{0})},
		"missing parent":    {NFeatures: 2, MaxDegree: 2, Terms: terms([]int{0, 0}, []int{0, 1}, []int{1, 1})},
		"parent after term": {NFeatures: 1, MaxDegree: 2, Terms: terms([]int{0}, []int{2}, []int{1})},
	}
	for name, e := range cases {
		if err := e.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: chain built without panicking", name)
				}
			}()
			e.chain()
		}()
	}
	// A prefix-closed set in a different order is a valid chain.
	ok := &Expansion{NFeatures: 2, MaxDegree: 2, Terms: terms([]int{0, 0}, []int{0, 1}, []int{1, 0}, []int{1, 1})}
	if err := ok.Validate(); err != nil {
		t.Fatalf("prefix-closed expansion rejected: %v", err)
	}
}

func TestTransformAllMatchesTransformBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 20; trial++ {
		nf := 1 + rng.Intn(4)
		e, err := NewExpansion(nf, 1+rng.Intn(3))
		if err != nil {
			t.Fatal(err)
		}
		xs := make([][]float64, 5+rng.Intn(20))
		for i := range xs {
			x := make([]float64, nf)
			for j := range x {
				x[j] = rng.NormFloat64()
			}
			xs[i] = x
		}
		var m linalg.Matrix
		if err := e.TransformAll(&m, xs); err != nil {
			t.Fatal(err)
		}
		for i, x := range xs {
			row, err := e.Transform(x)
			if err != nil {
				t.Fatal(err)
			}
			for j, want := range row {
				if got := m.Data[i*m.Cols+j]; got != want {
					t.Fatalf("trial %d row %d col %d: %x != %x", trial, i, j, got, want)
				}
			}
		}
	}
}

func TestTransformAllBadRow(t *testing.T) {
	e, _ := NewExpansion(2, 2)
	var m linalg.Matrix
	if err := e.TransformAll(&m, [][]float64{{1, 2}, {3}}); err == nil {
		t.Fatal("want error for ragged row")
	}
}

// TestPredictMatchesSlowPathBitwise: the compiled, pooled Predict computes
// exactly the slow path's sum on fitted models.
func TestPredictMatchesSlowPathBitwise(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		xs, ys := randomDataset(rng, 60+rng.Intn(60), 2+rng.Intn(3))
		m, err := Fit(xs, ys, 1+rng.Intn(3))
		if err != nil {
			return true // e.g. too few samples for the basis; not this test's concern
		}
		for trial := 0; trial < 10; trial++ {
			x := xs[rng.Intn(len(xs))]
			if m.Predict(x) != slowPredict(m, x) {
				return false
			}
		}
		// Batched prediction agrees with per-row prediction.
		batch := m.PredictAll(xs)
		for i, x := range xs {
			if batch[i] != slowPredict(m, x) {
				return false
			}
		}
		res := m.Residuals(xs, ys)
		for i := range res {
			if res[i] != ys[i]-batch[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestFitTrainR2MatchesSlowPath: TrainR2 is now computed from the design
// matrix rows instead of re-expanding every sample; the value must be
// bit-for-bit what the slow path computed.
func TestFitTrainR2MatchesSlowPath(t *testing.T) {
	for seed := int64(1); seed <= 15; seed++ {
		rng := rand.New(rand.NewSource(seed))
		xs, ys := randomDataset(rng, 80, 3)
		m, err := Fit(xs, ys, 2)
		if err != nil {
			t.Fatal(err)
		}
		pred := make([]float64, len(xs))
		for i, x := range xs {
			pred[i] = slowPredict(m, x)
		}
		if want := R2(ys, pred); m.TrainR2 != want {
			t.Fatalf("seed %d: TrainR2 = %x, slow path %x", seed, m.TrainR2, want)
		}
	}
}

// slowCrossValidate is the original serial k-fold loop, kept as the oracle
// for the parallel implementation.
func slowCrossValidate(xs [][]float64, ys []float64, degree, k int, rng *rand.Rand) (float64, error) {
	n := len(xs)
	perm := rng.Perm(n)
	scores := make([]float64, 0, k)
	for fold := 0; fold < k; fold++ {
		var trX, teX [][]float64
		var trY, teY []float64
		for i, idx := range perm {
			if i%k == fold {
				teX = append(teX, xs[idx])
				teY = append(teY, ys[idx])
			} else {
				trX = append(trX, xs[idx])
				trY = append(trY, ys[idx])
			}
		}
		m, err := Fit(trX, trY, degree)
		if err != nil {
			return 0, err
		}
		scores = append(scores, R2(teY, m.PredictAll(teX)))
	}
	sum := 0.0
	for _, s := range scores {
		sum += s
	}
	return sum / float64(len(scores)), nil
}

// TestParallelCVMatchesSerialBitwise: every worker count from 1 to 8
// produces byte-identical scores to the serial reference loop.
func TestParallelCVMatchesSerialBitwise(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		xs, ys := randomDataset(rng, 90, 3)
		want, err := slowCrossValidate(xs, ys, 2, 5, rand.New(rand.NewSource(seed+100)))
		if err != nil {
			t.Fatal(err)
		}
		for workers := 1; workers <= 8; workers++ {
			got, err := CrossValidateParallel(xs, ys, 2, 5, rand.New(rand.NewSource(seed+100)), workers)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("seed %d workers %d: CV = %x, serial %x", seed, workers, got, want)
			}
		}
	}
}

// slowOutOfFoldResiduals is the original serial implementation, kept as
// the oracle for the fold-parallel one.
func slowOutOfFoldResiduals(xs [][]float64, ys []float64, degree, k int, rng *rand.Rand) ([]float64, error) {
	n := len(xs)
	perm := rng.Perm(n)
	res := make([]float64, n)
	for fold := 0; fold < k; fold++ {
		var trX [][]float64
		var trY []float64
		var teIdx []int
		for i, idx := range perm {
			if i%k == fold {
				teIdx = append(teIdx, idx)
			} else {
				trX = append(trX, xs[idx])
				trY = append(trY, ys[idx])
			}
		}
		m, err := Fit(trX, trY, degree)
		if err != nil {
			return nil, err
		}
		for _, idx := range teIdx {
			res[idx] = ys[idx] - slowPredict(m, xs[idx])
		}
	}
	return res, nil
}

func TestOutOfFoldResidualsMatchSerialBitwise(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		xs, ys := randomDataset(rng, 70, 2)
		want, err := slowOutOfFoldResiduals(xs, ys, 2, 5, rand.New(rand.NewSource(seed+7)))
		if err != nil {
			t.Fatal(err)
		}
		got, err := OutOfFoldResiduals(xs, ys, 2, 5, rand.New(rand.NewSource(seed+7)))
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d residual %d: %x != %x", seed, i, got[i], want[i])
			}
		}
	}
}

// TestAutoFitDeterministicAcrossRuns: AutoFit consumes the rng only for
// fold permutations, so identical seeds give identical models even though
// folds fit concurrently.
func TestAutoFitDeterministicAcrossRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	xs, ys := randomDataset(rng, 120, 3)
	a, err := AutoFit(xs, ys, 0.9, 3, 5, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := AutoFit(xs, ys, 0.9, 3, 5, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if a.Degree != b.Degree || a.CVScore != b.CVScore || a.Achieved != b.Achieved {
		t.Fatalf("run mismatch: (%d %x %v) vs (%d %x %v)", a.Degree, a.CVScore, a.Achieved, b.Degree, b.CVScore, b.Achieved)
	}
	for i := range a.Model.Coeffs {
		if a.Model.Coeffs[i] != b.Model.Coeffs[i] {
			t.Fatalf("coeff %d: %x != %x", i, a.Model.Coeffs[i], b.Model.Coeffs[i])
		}
	}
}

// TestPredictZeroAllocs asserts the headline number: steady-state Predict
// performs zero allocations.
func TestPredictZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	xs, ys := randomDataset(rng, 100, 4)
	m, err := Fit(xs, ys, 3)
	if err != nil {
		t.Fatal(err)
	}
	probe := xs[11]
	m.Predict(probe) // compile + warm the pool outside the measurement
	allocs := testing.AllocsPerRun(200, func() { m.Predict(probe) })
	if allocs > 0 {
		t.Fatalf("Predict allocates %.2f/op, want 0", allocs)
	}
}

// TestPredictIntoZeroAllocs: batched prediction with caller-owned dst is
// allocation-free too.
func TestPredictIntoZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	xs, ys := randomDataset(rng, 100, 4)
	m, err := Fit(xs, ys, 2)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]float64, len(xs))
	m.PredictInto(dst, xs)
	allocs := testing.AllocsPerRun(100, func() { m.PredictInto(dst, xs) })
	if allocs > 0 {
		t.Fatalf("PredictInto allocates %.2f/op, want 0", allocs)
	}
}

func TestPredictIntoBadDst(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	xs, ys := randomDataset(rng, 40, 2)
	m, err := Fit(xs, ys, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("want panic for dst length mismatch")
		}
	}()
	m.PredictInto(make([]float64, 3), xs)
}

// TestDistinctCapsMatchesMapSemantics: the linear-probe rewrite must agree
// with a map-based distinct count, including the NaN-never-equal corner.
func TestDistinctCapsMatchesMapSemantics(t *testing.T) {
	mapCaps := func(xs [][]float64, maxDiscrete int) []int {
		if len(xs) == 0 {
			return nil
		}
		nf := len(xs[0])
		caps := make([]int, nf)
		for j := 0; j < nf; j++ {
			seen := map[float64]bool{}
			for _, x := range xs {
				if j >= len(x) {
					continue
				}
				seen[x[j]] = true
				if len(seen) > maxDiscrete {
					break
				}
			}
			switch {
			case len(seen) == 0, len(seen) > maxDiscrete:
				caps[j] = -1
			default:
				caps[j] = len(seen) - 1
			}
		}
		return caps
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, nf := 1+rng.Intn(60), 1+rng.Intn(4)
		xs := make([][]float64, n)
		for i := range xs {
			x := make([]float64, nf)
			for j := range x {
				switch rng.Intn(4) {
				case 0:
					x[j] = float64(rng.Intn(3))
				case 1:
					x[j] = rng.NormFloat64()
				default:
					x[j] = float64(rng.Intn(20))
				}
			}
			xs[i] = x
		}
		md := 1 + rng.Intn(14)
		got, want := DistinctCaps(xs, md), mapCaps(xs, md)
		for j := range want {
			if got[j] != want[j] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
