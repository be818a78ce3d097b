package core

import (
	"math"
	"math/rand"
	"testing"
)

// cliffTarget is a piecewise response no low-degree polynomial can fit
// globally: flat at 1 below the cliff, steep quadratic above it.
func cliffTarget(x []float64) float64 {
	if x[0] <= 2 {
		return 1
	}
	return 40 + 25*(x[0]-2)*(x[0]-2) + 3*x[1]
}

func cliffData(n int, rng *rand.Rand) ([][]float64, []float64) {
	xs := make([][]float64, n)
	ys := make([]float64, n)
	for i := 0; i < n; i++ {
		x := []float64{rng.Float64() * 4, rng.Float64() * 2}
		xs[i] = x
		ys[i] = cliffTarget(x)
	}
	return xs, ys
}

func splitTrained() *Trained {
	opts := DefaultOptions()
	opts.TargetR2 = 0.97
	opts.MaxPolyDegree = 2
	opts.Folds = 5
	return &Trained{Opts: opts}
}

func TestFitTargetSplitsOnCliff(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	xs, ys := cliffData(240, rng)
	tr := splitTrained()
	fm, err := tr.fitTarget(xs, ys, scaleLinear, rng)
	if err != nil {
		t.Fatal(err)
	}
	if fm.lo == nil || fm.hi == nil {
		// A degree-2 global fit of this cliff caps out well below the
		// target; the split must fire.
		t.Fatalf("expected a sub-model split, got degree-%d single model (trainR2=%.3f)",
			fm.degree, fm.model.TrainR2)
	}
	if fm.splitFeat != 0 {
		t.Fatalf("split on feature %d, want 0 (the cliff axis)", fm.splitFeat)
	}
	// Routed predictions should be accurate on both sides of the cliff.
	for _, probe := range [][]float64{{0.5, 1}, {1.5, 0.2}, {3, 1}, {3.8, 1.7}} {
		got := fm.predictRaw(probe)
		want := cliffTarget(probe)
		if math.Abs(got-want) > 0.15*math.Abs(want)+1 {
			t.Fatalf("probe %v: predicted %.2f, want %.2f", probe, got, want)
		}
	}
}

func TestFitTargetNoSplitWhenTargetMet(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	xs := make([][]float64, 200)
	ys := make([]float64, 200)
	for i := range xs {
		x := []float64{rng.Float64() * 4, rng.Float64() * 2}
		xs[i] = x
		ys[i] = 2 + 3*x[0] + x[1] // exactly linear
	}
	tr := splitTrained()
	fm, err := tr.fitTarget(xs, ys, scaleLinear, rng)
	if err != nil {
		t.Fatal(err)
	}
	if fm.lo != nil {
		t.Fatal("split fired on data a linear model fits perfectly")
	}
}

func TestSplitModelSurvivesPersistence(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	xs, ys := cliffData(240, rng)
	tr := splitTrained()
	fm, err := tr.fitTarget(xs, ys, scaleLinear, rng)
	if err != nil {
		t.Fatal(err)
	}
	if fm.lo == nil {
		t.Skip("split did not fire with this seed; covered by TestFitTargetSplitsOnCliff")
	}
	back, err := importFiltered(exportFiltered(fm), 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, probe := range [][]float64{{1, 1}, {3, 0.5}} {
		if got, want := back.predictRaw(probe), fm.predictRaw(probe); got != want {
			t.Fatalf("probe %v: %.6f after round trip, want %.6f", probe, got, want)
		}
	}
}

func TestImportFilteredRejectsHalfSplit(t *testing.T) {
	d := filteredDTO{Scale: 0, Lo: &filteredDTO{Scale: 0}}
	if _, err := importFiltered(d, 2); err == nil {
		t.Fatal("accepted a split with a missing half")
	}
}

func TestSplitModelConfidenceBands(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	xs, ys := cliffData(260, rng)
	tr := splitTrained()
	fm, err := tr.fitTarget(xs, ys, scaleLinear, rng)
	if err != nil {
		t.Fatal(err)
	}
	if fm.lo == nil {
		t.Skip("split did not fire")
	}
	band, err := tr.confFromResiduals(xs, ys, fm, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(band.Bands) == 0 {
		t.Fatal("no confidence bands for split model")
	}
	// The band must be finite and usable for conservative bounds.
	if up := band.Upper(1.0); math.IsNaN(up) || up < 1.0 {
		t.Fatalf("Upper(1.0) = %g", up)
	}
}
