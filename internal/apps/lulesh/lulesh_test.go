package lulesh

import (
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

func TestOutputLengthMatchesMesh(t *testing.T) {
	p := apps.Params{"mesh": 32, "regions": 2}
	res := golden(t, p)
	if len(res.Output) != 32 {
		t.Fatalf("output length = %d, want 32", len(res.Output))
	}
}

func TestBlastSpreadsEnergy(t *testing.T) {
	p := apps.DefaultParams(New())
	res := golden(t, p)
	ne := len(res.Output)
	// Energy was deposited in the central element; by the end the shock
	// must have carried energy well away from the center.
	var off float64
	for i, e := range res.Output {
		if i < ne/4 || i > 3*ne/4 {
			off += e
		}
	}
	if off <= 0.01 {
		t.Fatalf("no energy reached the outer quarters: %g", off)
	}
	for i, e := range res.Output {
		if e <= 0 {
			t.Fatalf("non-positive energy at element %d: %g", i, e)
		}
	}
}

func TestIterationCountVariesWithApproximation(t *testing.T) {
	// The paper's Fig. 3 phenomenon: the timestep loop's trip count
	// depends on internal approximation.
	a := New()
	p := apps.DefaultParams(a)
	g := golden(t, p)
	seen := map[int]bool{g.OuterIters: true}
	for _, cfg := range []approx.Config{
		{0, 0, 0, 5},
		{3, 0, 0, 0},
		{0, 0, 3, 0},
	} {
		res, err := apps.Run(a, p, approx.UniformSchedule(1, cfg), g.OuterIters)
		if err != nil {
			t.Fatal(err)
		}
		seen[res.OuterIters] = true
	}
	if len(seen) < 2 {
		t.Fatalf("iteration count never moved: %v", seen)
	}
}

func TestRegionsChangeSolution(t *testing.T) {
	r2 := golden(t, apps.Params{"mesh": 48, "regions": 2})
	r4 := golden(t, apps.Params{"mesh": 48, "regions": 4})
	same := true
	for i := range r2.Output {
		if r2.Output[i] != r4.Output[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("region count has no effect on the solution")
	}
}

func TestInvalidParams(t *testing.T) {
	a := New()
	if _, err := apps.Run(a, apps.Params{"mesh": 1, "regions": 2}, approx.AccurateSchedule(4), 0); err == nil {
		t.Fatal("want error for tiny mesh")
	}
	if _, err := apps.Run(a, apps.Params{"mesh": 48, "regions": 0}, approx.AccurateSchedule(4), 0); err == nil {
		t.Fatal("want error for zero regions")
	}
}

func TestLatePhaseGentlerThanEarly(t *testing.T) {
	// The headline property for LULESH (paper Fig. 4): approximating the
	// last phase degrades QoS far less than the first.
	a := New()
	runner := apps.NewRunner(a)
	p := apps.DefaultParams(a)
	cfg := approx.Config{3, 3, 3, 3}
	early, err := runner.Evaluate(p, approx.SinglePhaseSchedule(4, 0, cfg))
	if err != nil {
		t.Fatal(err)
	}
	late, err := runner.Evaluate(p, approx.SinglePhaseSchedule(4, 3, cfg))
	if err != nil {
		t.Fatal(err)
	}
	if late.Degradation >= early.Degradation {
		t.Fatalf("late phase (%.2f%%) not gentler than early (%.2f%%)",
			late.Degradation, early.Degradation)
	}
}

func TestOutputsAlwaysFinite(t *testing.T) {
	// Even the most aggressive schedule must produce finite output.
	a := New()
	p := apps.DefaultParams(a)
	cfg := approx.Config{5, 5, 5, 5}
	res, err := apps.Run(a, p, approx.UniformSchedule(1, cfg), 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range res.Output {
		if v != v || v > 1e30 {
			t.Fatalf("output[%d] = %g", i, v)
		}
	}
}
