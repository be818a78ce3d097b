package tracker

import (
	"math"
	"math/rand"
	"testing"

	"opprox/internal/approx"
	"opprox/internal/apps"
)

func golden(t *testing.T, p apps.Params) apps.Result {
	t.Helper()
	a := New()
	res, err := apps.Run(a, p, approx.AccurateSchedule(len(a.Blocks())), 0)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestOutputLayout(t *testing.T) {
	p := apps.Params{"layers": 3, "particles": 60, "frames": 5}
	res := golden(t, p)
	if len(res.Output) != 5*numJoints {
		t.Fatalf("output length = %d, want %d", len(res.Output), 5*numJoints)
	}
	// Iterations = frames × layers plus possible refinement repeats.
	if res.OuterIters < 15 || res.OuterIters > 30 {
		t.Fatalf("iterations = %d, want within [15, 30]", res.OuterIters)
	}
}

func TestTracksTheTruth(t *testing.T) {
	p := apps.DefaultParams(New())
	res := golden(t, p)
	frames := int(p["frames"])
	// The accurate filter should track each frame's pose within a few
	// noise standard deviations, relative to pose magnitude.
	var sumErr, sumMag float64
	for f := 0; f < frames; f++ {
		truth := truePose(f)
		for j := 0; j < numJoints; j++ {
			sumErr += math.Abs(res.Output[f*numJoints+j] - truth[j])
			sumMag += math.Abs(truth[j])
		}
	}
	if rel := sumErr / sumMag; rel > 0.25 {
		t.Fatalf("accurate tracking error %.1f%% of pose magnitude, want < 25%%", rel*100)
	}
}

func TestLayersTuningReducesIterations(t *testing.T) {
	a := New()
	p := apps.DefaultParams(a)
	g := golden(t, p)
	cfg := approx.Config{0, 0, 0, 2} // max layers tuning
	res, err := apps.Run(a, p, approx.UniformSchedule(1, cfg), g.OuterIters)
	if err != nil {
		t.Fatal(err)
	}
	if res.OuterIters >= g.OuterIters {
		t.Fatalf("layers tuning did not reduce iterations: %d >= %d", res.OuterIters, g.OuterIters)
	}
}

func TestMinParticlesTuningReducesRepeats(t *testing.T) {
	a := New()
	p := apps.DefaultParams(a)
	g := golden(t, p)
	cfg := approx.Config{0, 0, 3, 0} // most aggressive min-particles
	res, err := apps.Run(a, p, approx.UniformSchedule(1, cfg), g.OuterIters)
	if err != nil {
		t.Fatal(err)
	}
	if res.OuterIters > g.OuterIters {
		t.Fatalf("lowering min-particles increased iterations: %d > %d", res.OuterIters, g.OuterIters)
	}
}

func TestLikelihoodPerforationCanAddRepeats(t *testing.T) {
	// Degenerate weights from perforated likelihoods can trigger
	// refinement repeats — the paper's observation that with small
	// min-particles the iteration count depends on the ALs.
	a := New()
	p := apps.DefaultParams(a)
	g := golden(t, p)
	res, err := apps.Run(a, p, approx.UniformSchedule(1, approx.Config{5, 0, 0, 0}), g.OuterIters)
	if err != nil {
		t.Fatal(err)
	}
	if res.OuterIters == g.OuterIters {
		t.Logf("iterations unchanged (%d); acceptable but unusual", res.OuterIters)
	}
}

func TestPoseMagnitudesVary(t *testing.T) {
	pose := truePose(3)
	min, max := pose[0], pose[0]
	for _, v := range pose {
		min = math.Min(min, v)
		max = math.Max(max, v)
	}
	if max < 4*min {
		t.Fatalf("pose components too uniform (min %g, max %g) for the weighted metric to matter", min, max)
	}
}

func TestInvalidParams(t *testing.T) {
	a := New()
	if _, err := apps.Run(a, apps.Params{"layers": 0, "particles": 60, "frames": 5}, approx.AccurateSchedule(4), 0); err == nil {
		t.Fatal("want error for zero layers")
	}
	if _, err := apps.Run(a, apps.Params{"layers": 3, "particles": 2, "frames": 5}, approx.AccurateSchedule(4), 0); err == nil {
		t.Fatal("want error for too few particles")
	}
}

func TestResampleDistribution(t *testing.T) {
	// A particle with all the weight should dominate the resampled set.
	pts := []float64{1, 10, 2, 20, 3, 30, 4, 40}
	weights := []float64{0, 1, 0, 0}
	rng := newTestRNG()
	out := make([]float64, len(pts))
	resample(out, pts, weights, rng)
	for i := 0; i < len(out); i += 2 {
		if out[i] != 2 || out[i+1] != 20 {
			t.Fatalf("resample leaked a zero-weight particle: %v", out[i:i+2])
		}
	}
	if pts[0] != 1 || pts[7] != 40 {
		t.Fatalf("resample wrote into its source: %v", pts)
	}
}

func TestEarlyPhasesMoreSensitive(t *testing.T) {
	a := New()
	runner := apps.NewRunner(a)
	p := apps.DefaultParams(a)
	cfg := approx.Config{4, 3, 2, 1}
	early, err := runner.Evaluate(p, approx.SinglePhaseSchedule(4, 0, cfg))
	if err != nil {
		t.Fatal(err)
	}
	late, err := runner.Evaluate(p, approx.SinglePhaseSchedule(4, 3, cfg))
	if err != nil {
		t.Fatal(err)
	}
	if late.Degradation >= early.Degradation {
		t.Fatalf("late (%.2f%%) not gentler than early (%.2f%%)", late.Degradation, early.Degradation)
	}
}

// newTestRNG returns a deterministic RNG for resampling tests.
func newTestRNG() *rand.Rand { return rand.New(rand.NewSource(7)) }
