package pso

import (
	"math"
	"sort"
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

func TestRosenbrock(t *testing.T) {
	if got := rosenbrock([]float64{1, 1, 1}); got != 0 {
		t.Fatalf("rosenbrock at optimum = %g, want 0", got)
	}
	if got := rosenbrock([]float64{0, 0}); got != 1 {
		t.Fatalf("rosenbrock(0,0) = %g, want 1", got)
	}
	if rosenbrock([]float64{3, -2}) <= 0 {
		t.Fatal("rosenbrock should be positive away from the optimum")
	}
}

func TestConvergesTowardOptimum(t *testing.T) {
	p := apps.DefaultParams(New())
	res := golden(t, p)
	// Output is sorted per-particle best fitness; the best particle should
	// get well below the typical random-initialization fitness (~1e4).
	best := res.Output[0]
	if best > 100 {
		t.Fatalf("best fitness %g after convergence, want < 100", best)
	}
}

func TestOutputSorted(t *testing.T) {
	res := golden(t, apps.DefaultParams(New()))
	if !sort.Float64sAreSorted(res.Output) {
		t.Fatal("output must be the sorted fitness distribution")
	}
	if len(res.Output) != 16 {
		t.Fatalf("output length = %d, want swarm size 16", len(res.Output))
	}
}

func TestQoSLogScale(t *testing.T) {
	a := New()
	exact := []float64{0.001, 0.01}
	// One decade of convergence lost on each particle → 2 decades / 2
	// particles / logRange decades → 100/logRange percent.
	approxOut := []float64{0.01 * 10, 0.1 * 10}
	deg, err := a.QoS(exact, approxOut)
	if err != nil {
		t.Fatal(err)
	}
	if deg <= 0 || math.IsNaN(deg) {
		t.Fatalf("deg = %g", deg)
	}
	same, err := a.QoS(exact, exact)
	if err != nil || same != 0 {
		t.Fatalf("identical outputs deg = %g err = %v", same, err)
	}
	// Negative fitness values are clamped, not NaN.
	if _, err := a.QoS([]float64{-1}, []float64{-2}); err != nil {
		t.Fatalf("negative fitness: %v", err)
	}
}

func TestApproximationCanTerminateEarly(t *testing.T) {
	// Aggressive velocity memoization stalls improvement and triggers the
	// convergence exit — the iteration-count dependence the paper
	// highlights for convergence loops.
	a := New()
	p := apps.DefaultParams(a)
	g := golden(t, p)
	res, err := apps.Run(a, p, approx.UniformSchedule(1, approx.Config{0, 5, 0}), g.OuterIters)
	if err != nil {
		t.Fatal(err)
	}
	if res.OuterIters >= g.OuterIters {
		t.Fatalf("aggressive memoization did not shorten the run: %d >= %d", res.OuterIters, g.OuterIters)
	}
}

func TestSwarmSizeScalesOutput(t *testing.T) {
	res := golden(t, apps.Params{"swarm": 8, "dim": 2})
	if len(res.Output) != 8 {
		t.Fatalf("output length = %d, want 8", len(res.Output))
	}
}

func TestInvalidParams(t *testing.T) {
	a := New()
	if _, err := apps.Run(a, apps.Params{"swarm": 1, "dim": 2}, approx.AccurateSchedule(3), 0); err == nil {
		t.Fatal("want error for swarm of 1")
	}
	if _, err := apps.Run(a, apps.Params{"swarm": 8, "dim": 0}, approx.AccurateSchedule(3), 0); err == nil {
		t.Fatal("want error for zero dimensions")
	}
}

func TestLatePhaseGentler(t *testing.T) {
	a := New()
	runner := apps.NewRunner(a)
	p := apps.DefaultParams(a)
	cfg := approx.Config{5, 5, 3}
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
	if late.Speedup >= early.Speedup {
		t.Fatalf("PSO speedup should drop in later phases (paper Fig. 10b): late %.2f >= early %.2f",
			late.Speedup, early.Speedup)
	}
}
