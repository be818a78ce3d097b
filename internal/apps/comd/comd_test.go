package comd

import (
	"math"
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
	p := apps.Params{"cells": 2, "lattice": 1.6, "timesteps": 20}
	res := golden(t, p)
	n := 4 * 2 * 2 * 2
	if len(res.Output) != 5*n {
		t.Fatalf("output length = %d, want %d (3N positions + N PE + N KE)", len(res.Output), 5*n)
	}
	if res.OuterIters != 20 {
		t.Fatalf("iterations = %d, want the input timestep count 20", res.OuterIters)
	}
}

func TestIterationCountIndependentOfLevels(t *testing.T) {
	// The paper: CoMD's outer loop is a classic timestep loop whose trip
	// count depends only on the input.
	a := New()
	p := apps.DefaultParams(a)
	g := golden(t, p)
	for _, cfg := range []approx.Config{{5, 0, 0}, {0, 4, 0}, {0, 0, 3}, {5, 4, 3}} {
		res, err := apps.Run(a, p, approx.UniformSchedule(1, cfg), g.OuterIters)
		if err != nil {
			t.Fatal(err)
		}
		if res.OuterIters != g.OuterIters {
			t.Fatalf("cfg %v changed iterations: %d != %d", cfg, res.OuterIters, g.OuterIters)
		}
	}
}

func TestEnergiesFinite(t *testing.T) {
	res := golden(t, apps.DefaultParams(New()))
	for i, v := range res.Output {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("output[%d] = %g", i, v)
		}
	}
}

func TestKineticEnergyPositive(t *testing.T) {
	res := golden(t, apps.DefaultParams(New()))
	n := len(res.Output) / 5
	ke := res.Output[4*n:]
	total := 0.0
	for _, v := range ke {
		if v < 0 {
			t.Fatalf("negative kinetic energy %g", v)
		}
		total += v
	}
	if total <= 0 {
		t.Fatal("system has no kinetic energy")
	}
}

func TestTimestepsScaleWork(t *testing.T) {
	short := golden(t, apps.Params{"cells": 2, "lattice": 1.6, "timesteps": 20})
	long := golden(t, apps.Params{"cells": 2, "lattice": 1.6, "timesteps": 40})
	if long.Work <= short.Work {
		t.Fatalf("doubling timesteps did not increase work: %d vs %d", long.Work, short.Work)
	}
}

func TestInvalidParams(t *testing.T) {
	a := New()
	if _, err := apps.Run(a, apps.Params{"cells": 0, "lattice": 1.6, "timesteps": 20}, approx.AccurateSchedule(3), 0); err == nil {
		t.Fatal("want error for zero cells")
	}
	if _, err := apps.Run(a, apps.Params{"cells": 2, "lattice": -1, "timesteps": 20}, approx.AccurateSchedule(3), 0); err == nil {
		t.Fatal("want error for negative lattice parameter")
	}
}

func TestMinImage(t *testing.T) {
	if got := minImage(4.5, 5); math.Abs(got+0.5) > 1e-12 {
		t.Fatalf("minImage(4.5, 5) = %g, want -0.5", got)
	}
	if got := minImage(-4.5, 5); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("minImage(-4.5, 5) = %g, want 0.5", got)
	}
	if got := minImage(1, 5); got != 1 {
		t.Fatalf("minImage(1, 5) = %g, want 1", got)
	}
}

func TestWrapStaysInBox(t *testing.T) {
	v := wrap(vec3{-0.1, 5.2, 2.5}, 5)
	for _, c := range []float64{v.x, v.y, v.z} {
		if c < 0 || c >= 5 {
			t.Fatalf("wrapped coordinate %g outside [0,5)", c)
		}
	}
}

func TestClampSpeed(t *testing.T) {
	v := clampSpeed(vec3{1000, 0, 0})
	s := math.Sqrt(v.x*v.x + v.y*v.y + v.z*v.z)
	if s > maxSpeed*1.0001 {
		t.Fatalf("speed %g exceeds clamp %g", s, maxSpeed)
	}
	small := clampSpeed(vec3{1, 2, 3})
	if small != (vec3{1, 2, 3}) {
		t.Fatal("clamp altered a slow velocity")
	}
}
