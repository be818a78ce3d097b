// custom-app shows how to bring your own application to OPPROX: implement
// the opprox.App interface around your kernel, expose approximable blocks
// with level knobs through the provided loop executors, and the trainer,
// models, and optimizer work unchanged.
//
// The application here is a 1D heat-diffusion solver (Jacobi iteration)
// with two approximable blocks: the stencil sweep (perforation) and the
// convergence-residual computation (memoization).
//
//	go run ./examples/custom-app
package main

import (
	"fmt"
	"log"
	"math"

	"opprox"
)

// heatApp solves u_t = u_xx on a rod with fixed hot/cold ends until the
// temperature field stops changing.
type heatApp struct{}

func (heatApp) Name() string { return "heat" }

func (heatApp) Blocks() []opprox.Block {
	return []opprox.Block{
		{Name: "stencil", Technique: opprox.Perforation, MaxLevel: 4},
		{Name: "residual", Technique: opprox.Memoization, MaxLevel: 4},
	}
}

func (heatApp) Params() []opprox.ParamSpec {
	return []opprox.ParamSpec{
		{Name: "cells", Values: []float64{24, 40}, Default: 32},
	}
}

func (heatApp) QoS(exact, approximate []float64) (float64, error) {
	// Mean absolute temperature error, percent of the hot-end scale.
	if len(exact) != len(approximate) {
		return 0, fmt.Errorf("heat: length mismatch")
	}
	sum := 0.0
	for i := range exact {
		sum += math.Abs(exact[i] - approximate[i])
	}
	return 100 * sum / float64(len(exact)), nil
}

// Start validates the input and returns the rod before the first Jacobi
// sweep.
func (a heatApp) Start(p opprox.Params) (opprox.State, error) {
	n := int(p.Vector(a.Params())[0])
	if n < 8 {
		return nil, fmt.Errorf("heat: need at least 8 cells")
	}
	s := &heatState{u: make([]float64, n), next: make([]float64, n), residual: 1, cachedResidual: 1}
	s.u[0], s.u[n-1] = 1, 0 // hot left end, cold right end
	return s, nil
}

// heatState is the solver paused between Jacobi iterations.
type heatState struct {
	u, next                  []float64
	residual, cachedResidual float64
	done                     bool
	rec                      opprox.Recorder
}

const maxIters = 2500

// Step runs one Jacobi iteration at the levels of the phase it falls in.
func (s *heatState) Step(sched opprox.Schedule, baselineIters int) bool {
	iter := s.rec.Iterations()
	if s.done || iter >= maxIters {
		return false
	}
	u, next, n := s.u, s.next, len(s.u)
	s.rec.BeginIteration()
	levels := sched.LevelsAt(opprox.PhaseOf(iter, baselineIters, sched.Phases))

	// AB 1: the Jacobi sweep, perforated over interior cells; skipped
	// cells keep their previous value one more iteration.
	copy(next, u)
	updated := opprox.PerforateRotating(n-2, levels[0], iter, func(k int) {
		i := k + 1
		next[i] = 0.5 * (u[i-1] + u[i+1])
	})
	s.u, s.next = next, u
	u = s.u
	s.rec.Call("stencil", uint64(updated*4))

	// AB 2: the convergence residual, memoized across iterations.
	if iter%(levels[1]+1) == 0 {
		s.residual = 0
		for i := 1; i < n-1; i++ {
			s.residual += math.Abs(0.5*(u[i-1]+u[i+1]) - u[i])
		}
		s.cachedResidual = s.residual
		s.rec.Call("residual", uint64(n*3))
	} else {
		s.residual = s.cachedResidual
		s.rec.Call("residual", 2)
	}
	s.rec.Overhead(uint64(n))
	s.done = s.residual < 1e-4*float64(n)
	return true
}

// Clone copies the run so the copy steps independently.
func (s *heatState) Clone() opprox.State {
	c := *s
	c.u = append([]float64(nil), s.u...)
	c.next = append([]float64(nil), s.next...)
	c.rec = s.rec.Clone()
	return &c
}

// Result reports the temperature field and the work accounting.
func (s *heatState) Result() opprox.Result {
	return opprox.Result{
		Output:     append([]float64(nil), s.u...),
		Work:       s.rec.TotalWork(),
		OuterIters: s.rec.Iterations(),
		CtxSig:     "stencil>residual",
	}
}

func main() {
	log.SetFlags(0)

	var app opprox.App = heatApp{}
	sys := opprox.New(app)

	opts := opprox.DefaultOptions()
	opts.Phases = 4
	fmt.Println("training OPPROX on the custom heat solver...")
	if err := sys.Train(opts); err != nil {
		log.Fatal(err)
	}

	params := opprox.DefaultParams(app)
	golden, err := sys.Runner.Golden(params)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("accurate run: %d Jacobi iterations to convergence\n\n", golden.OuterIters)

	for _, budget := range []float64{1, 3, 8} {
		sched, _, err := sys.Optimize(params, budget)
		if err != nil {
			log.Fatal(err)
		}
		ev, err := sys.Evaluate(params, sched)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("budget %4.1f%%: schedule %s\n", budget, sched)
		fmt.Printf("             measured %.3fx speedup at %.2f%% error, %d iterations\n",
			ev.Speedup, ev.Degradation, ev.OuterIters)
	}
}
