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
	if got := minImage(4.5, 5, 2.5); math.Abs(got+0.5) > 1e-12 {
		t.Fatalf("minImage(4.5, 5) = %g, want -0.5", got)
	}
	if got := minImage(-4.5, 5, 2.5); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("minImage(-4.5, 5) = %g, want 0.5", got)
	}
	if got := minImage(1, 5, 2.5); got != 1 {
		t.Fatalf("minImage(1, 5) = %g, want 1", got)
	}
}

// directForces is the direct double loop computeForces replaced, kept as
// its oracle: every active atom evaluates every other atom's pair term
// itself, in ascending j.
func directForces(s *state, force []vec3, pe []float64, active func(i int) bool) int {
	n, pos, box := s.n, s.pos, s.box
	evaluated := 0
	for i := 0; i < n; i++ {
		if !active(i) {
			continue
		}
		var f vec3
		e := 0.0
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			dx := minImage(pos[i].x-pos[j].x, box, box/2)
			dy := minImage(pos[i].y-pos[j].y, box, box/2)
			dz := minImage(pos[i].z-pos[j].z, box, box/2)
			r2 := dx*dx + dy*dy + dz*dz
			if r2 > s.cutoff2 || r2 < 1e-12 {
				continue
			}
			inv2 := ljSigma * ljSigma / r2
			inv6 := inv2 * inv2 * inv2
			fmag := 24 * ljEpsilon * (2*inv6*inv6 - inv6) / r2
			f = f.add(vec3{fmag * dx, fmag * dy, fmag * dz})
			e += 2 * ljEpsilon * (inv6*inv6 - inv6)
		}
		force[i] = f
		pe[i] = e
		evaluated++
	}
	return evaluated
}

// TestPairOnceMatchesDirect checks the pair-once force kernel against
// the direct double loop bit for bit, for n = 32 and n = 108, at force
// strides 1-6 and every rotation of each stride, on states a few
// perforated timesteps into a run so the forces are not the lattice's.
func TestPairOnceMatchesDirect(t *testing.T) {
	a := New()
	for _, cells := range []float64{2, 3} {
		st, err := a.Start(apps.Params{"cells": cells, "lattice": 1.55, "timesteps": 20})
		if err != nil {
			t.Fatal(err)
		}
		s := st.(*state)
		for i := 0; i < 5; i++ {
			s.Step(approx.UniformSchedule(1, approx.Config{3, 2, 1}), 20)
		}
		for stride := 1; stride <= 6; stride++ {
			for off := 0; off < stride; off++ {
				active := func(i int) bool { return (i+off)%stride == 0 }
				// Inactive entries must be left alone: start both from
				// the state's current forces.
				f1, f2 := append([]vec3(nil), s.force...), append([]vec3(nil), s.force...)
				e1, e2 := append([]float64(nil), s.peAtom...), append([]float64(nil), s.peAtom...)
				n1 := s.computeForces(f1, e1, active)
				n2 := directForces(s, f2, e2, active)
				if n1 != n2 {
					t.Fatalf("n=%d stride %d offset %d: evaluated %d, direct %d", s.n, stride, off, n1, n2)
				}
				for i := range f1 {
					if !sameBits(f1[i].x, f2[i].x) || !sameBits(f1[i].y, f2[i].y) ||
						!sameBits(f1[i].z, f2[i].z) || !sameBits(e1[i], e2[i]) {
						t.Fatalf("n=%d stride %d offset %d atom %d: force %v pe %v, direct %v pe %v",
							s.n, stride, off, i, f1[i], e1[i], f2[i], e2[i])
					}
				}
			}
		}
	}
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

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
