package poly

import (
	"math/rand"
	"testing"

	"opprox/internal/ml/linalg"
)

func benchData(n, nf int, seed int64) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	xs := make([][]float64, n)
	ys := make([]float64, n)
	for i := 0; i < n; i++ {
		x := make([]float64, nf)
		for j := range x {
			x[j] = rng.Float64() * 4
		}
		xs[i] = x
		ys[i] = x[0]*x[0] + 2*x[1] + rng.NormFloat64()*0.1
	}
	return xs, ys
}

func BenchmarkFitDegree2(b *testing.B) {
	xs, ys := benchData(300, 5, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Fit(xs, ys, 2); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFitDegree3(b *testing.B) {
	xs, ys := benchData(400, 5, 2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Fit(xs, ys, 3); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPredict(b *testing.B) {
	xs, ys := benchData(300, 5, 3)
	m, err := Fit(xs, ys, 3)
	if err != nil {
		b.Fatal(err)
	}
	probe := xs[17]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Predict(probe)
	}
}

func BenchmarkPredictAll(b *testing.B) {
	xs, ys := benchData(300, 5, 3)
	m, err := Fit(xs, ys, 3)
	if err != nil {
		b.Fatal(err)
	}
	dst := make([]float64, len(xs))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.PredictInto(dst, xs)
	}
}

// BenchmarkPredictBatch is the plan library's cold path: one fused
// chain-and-dot pass over a batch of rows.
func BenchmarkPredictBatch(b *testing.B) {
	xs, ys := benchData(300, 5, 3)
	m, err := Fit(xs, ys, 3)
	if err != nil {
		b.Fatal(err)
	}
	dst := make([]float64, len(xs))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.PredictBatch(dst, xs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTransformAll(b *testing.B) {
	xs, _ := benchData(300, 5, 6)
	e, err := NewExpansion(5, 3)
	if err != nil {
		b.Fatal(err)
	}
	var dst linalg.Matrix
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.TransformAll(&dst, xs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCrossValidateParallel(b *testing.B) {
	xs, ys := benchData(400, 4, 7)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(8))
		if _, err := CrossValidateParallel(xs, ys, 2, 5, rng, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAutoFit(b *testing.B) {
	xs, ys := benchData(250, 4, 4)
	rng := rand.New(rand.NewSource(5))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := AutoFit(xs, ys, 0.9, 3, 5, rng); err != nil {
			b.Fatal(err)
		}
	}
}
