// Package pso implements the particle-swarm-optimization benchmark
// (paper §4.1): a population-based stochastic optimizer for continuous
// objective functions whose main computation sits inside an outer
// convergence loop. The loop iterates until the global best solution
// stops improving, so — like the paper observes — the outer-loop
// iteration count depends on the internal approximation levels:
// perforating fitness evaluations early can stall apparent progress and
// terminate the search prematurely (big speedup, big error), while the
// same approximation near convergence changes almost nothing.
//
// Approximable blocks (paper Table 1: loop perforation, memoization):
//
//	fitness  — loop perforation over particles: skipped particles keep a
//	           stale fitness and cannot improve their personal best.
//	velocity — memoization: a particle's velocity is recomputed only every
//	           level+1 iterations and reused in between.
//	position — loop perforation over particles: skipped particles do not
//	           move this iteration.
package pso

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"opprox/internal/approx"
	"opprox/internal/apps"
	"opprox/internal/qos"
	"opprox/internal/trace"
)

// Block indices in the order reported by Blocks.
const (
	BlockFitness = iota
	BlockVelocity
	BlockPosition
)

// Algorithm constants (standard constricted PSO).
const (
	inertia   = 0.72
	cognitive = 1.49
	social    = 1.49
	bound     = 5.12 // Rastrigin domain half-width

	maxIters    = 500
	patience    = 30   // stop after this many non-improving iterations
	improveEps  = 1e-4 // relative improvement threshold
	warmupIters = 30   // convergence checking starts after warm-up
)

// Work-unit costs per inner operation.
const (
	costFitness  = 10
	costVelocity = 6
	costPosition = 2
	costRest     = 18
)

// App is the PSO benchmark. The zero value is not usable; call New.
type App struct{}

// New returns the PSO benchmark application.
func New() *App { return &App{} }

// Name implements apps.App.
func (*App) Name() string { return "pso" }

// Blocks implements apps.App.
func (*App) Blocks() []approx.Block {
	return []approx.Block{
		{Name: "fitness", Technique: approx.Perforation, MaxLevel: 5},
		{Name: "velocity", Technique: approx.Memoization, MaxLevel: 5},
		{Name: "position", Technique: approx.Perforation, MaxLevel: 3},
	}
}

// Params implements apps.App. The paper's PSO inputs are swarm size and
// dimension.
func (*App) Params() []apps.ParamSpec {
	return []apps.ParamSpec{
		{Name: "swarm", Values: []float64{8, 16, 24}, Default: 16},
		{Name: "dim", Values: []float64{2, 4, 6}, Default: 4},
	}
}

// QoS implements apps.App: the average difference of the best fitness
// values calculated for each particle in the swarm (paper §4.1). Because
// an exponentially converging optimizer spreads fitness values across
// many orders of magnitude, the distortion is computed on log10(1+f) —
// "how many digits of convergence were lost", averaged over the swarm.
func (*App) QoS(exact, approximate []float64) (float64, error) {
	if len(exact) != len(approximate) {
		return 0, qos.ErrLengthMismatch
	}
	if len(exact) == 0 {
		return 0, qos.ErrEmptyOutput
	}
	sum := 0.0
	for i, v := range exact {
		le := math.Log10(1 + math.Max(v, 0))
		la := math.Log10(1 + math.Max(approximate[i], 0))
		sum += math.Abs(la - le)
	}
	// logRange is the dynamic range of the search: how many decades a
	// swarm descends from random initialization to convergence. The
	// degradation is the fraction of that progress lost, in percent.
	return qosGain * 100 * sum / float64(len(exact)) / logRange, nil
}

// logRange is log10 of the typical fitness at random initialization — the
// denominator that turns "decades of convergence lost" into a percentage.
const logRange = 4.0

// qosGain calibrates the metric to the paper's PSO dynamic range.
const qosGain = 4.0

// rosenbrock is the objective: a curved narrow valley with a single global
// minimum of 0 at (1,...,1). The unique attractor makes the benchmark's
// QoS graded — approximation slows or stalls progress down the valley
// rather than scattering runs across unrelated local minima.
func rosenbrock(x []float64) float64 {
	s := 0.0
	for i := 0; i+1 < len(x); i++ {
		a := x[i+1] - x[i]*x[i]
		b := 1 - x[i]
		s += 100*a*a + b*b
	}
	return s
}

// state is one PSO run between iterations. Its random stream lives in
// src, which copies by value, so a clone continues the stream exactly.
type state struct {
	swarm, dim int
	src        apps.Source
	rng        *rand.Rand // draws from src

	pos, vel, cachedVel, pbest [][]float64
	fit, pbestFit              []float64
	gbest                      []float64
	gbestFit                   float64

	rec   trace.Recorder
	stale int
	done  bool
}

// Start implements apps.App: the swarm's random initialization.
func (a *App) Start(p apps.Params) (apps.State, error) {
	swarm := int(p.Vector(a.Params())[0])
	dim := int(p.Vector(a.Params())[1])
	if swarm < 2 || dim < 1 {
		return nil, fmt.Errorf("pso: invalid parameters swarm=%d dim=%d", swarm, dim)
	}
	s := &state{
		swarm:     swarm,
		dim:       dim,
		pos:       make([][]float64, swarm),
		vel:       make([][]float64, swarm),
		cachedVel: make([][]float64, swarm),
		fit:       make([]float64, swarm),
		pbest:     make([][]float64, swarm),
		pbestFit:  make([]float64, swarm),
		gbestFit:  math.Inf(1),
	}
	s.src.Seed(apps.Seed(a.Name(), p))
	s.rng = rand.New(&s.src)
	for i := 0; i < swarm; i++ {
		s.pos[i] = make([]float64, dim)
		s.vel[i] = make([]float64, dim)
		s.cachedVel[i] = make([]float64, dim)
		for d := 0; d < dim; d++ {
			s.pos[i][d] = s.rng.Float64()*2*bound - bound
			s.vel[i][d] = (s.rng.Float64()*2 - 1) * bound / 4
		}
		s.fit[i] = rosenbrock(s.pos[i])
		s.pbest[i] = append([]float64(nil), s.pos[i]...)
		s.pbestFit[i] = s.fit[i]
		if s.fit[i] < s.gbestFit {
			s.gbestFit = s.fit[i]
			s.gbest = append([]float64(nil), s.pos[i]...)
		}
	}
	return s, nil
}

// Step implements apps.State: one swarm iteration.
func (s *state) Step(sched approx.Schedule, baselineIters int) bool {
	iter := s.rec.Iterations()
	if s.done || iter >= maxIters {
		return false
	}
	swarm, dim := s.swarm, s.dim
	pos, vel, cachedVel, pbest, pbestFit := s.pos, s.vel, s.cachedVel, s.pbest, s.pbestFit
	s.rec.BeginIteration()
	levels := sched.LevelsAt(approx.PhaseOf(iter, baselineIters, sched.Phases))

	// AB: velocity update (memoization across iterations, staggered by
	// particle index so the whole swarm never coasts simultaneously).
	velPeriod := levels[BlockVelocity] + 1
	computedVel := 0
	for i := 0; i < swarm; i++ {
		if (iter+i)%velPeriod == 0 {
			for d := 0; d < dim; d++ {
				r1, r2 := s.rng.Float64(), s.rng.Float64()
				v := inertia*vel[i][d] +
					cognitive*r1*(pbest[i][d]-pos[i][d]) +
					social*r2*(s.gbest[d]-pos[i][d])
				if v > bound/2 {
					v = bound / 2
				} else if v < -bound/2 {
					v = -bound / 2
				}
				vel[i][d] = v
				cachedVel[i][d] = v
			}
			computedVel++
		} else {
			copy(vel[i], cachedVel[i]) // reuse cached velocity
		}
	}
	s.rec.Call("velocity", uint64(computedVel*dim*costVelocity))

	// AB: position update (rotating perforation over particles).
	moved := approx.PerforateRotating(swarm, levels[BlockPosition], iter, func(i int) {
		for d := 0; d < dim; d++ {
			pos[i][d] += vel[i][d]
			if pos[i][d] > bound {
				pos[i][d] = bound
			} else if pos[i][d] < -bound {
				pos[i][d] = -bound
			}
		}
	})
	s.rec.Call("position", uint64(moved*dim*costPosition))

	// AB: fitness evaluation (rotating perforation over particles).
	// Skipped particles keep a stale fitness until their next turn.
	evaluated := approx.PerforateRotating(swarm, levels[BlockFitness], iter, func(i int) {
		s.fit[i] = rosenbrock(pos[i])
		if s.fit[i] < pbestFit[i] {
			pbestFit[i] = s.fit[i]
			copy(pbest[i], pos[i])
		}
	})
	s.rec.Call("fitness", uint64(evaluated*dim*costFitness))

	// Convergence bookkeeping (exact, outside the ABs).
	improved := false
	for i := 0; i < swarm; i++ {
		if pbestFit[i] < s.gbestFit*(1-improveEps) {
			improved = true
		}
		if pbestFit[i] < s.gbestFit {
			s.gbestFit = pbestFit[i]
			copy(s.gbest, pbest[i])
		}
	}
	// Convergence bookkeeping, topology maintenance and logging:
	// exact work every iteration.
	s.rec.Overhead(uint64(swarm * dim * costRest))
	if improved {
		s.stale = 0
	} else {
		s.stale++
	}
	s.done = iter >= warmupIters && s.stale >= patience
	return true
}

// Clone implements apps.State.
func (s *state) Clone() apps.State {
	c := *s
	c.rng = rand.New(&c.src)
	c.pos = cloneRows(s.pos)
	c.vel = cloneRows(s.vel)
	c.cachedVel = cloneRows(s.cachedVel)
	c.pbest = cloneRows(s.pbest)
	c.fit = append([]float64(nil), s.fit...)
	c.pbestFit = append([]float64(nil), s.pbestFit...)
	c.gbest = append([]float64(nil), s.gbest...)
	c.rec = s.rec.Clone()
	return &c
}

func cloneRows(rows [][]float64) [][]float64 {
	out := make([][]float64, len(rows))
	for i, r := range rows {
		out[i] = append([]float64(nil), r...)
	}
	return out
}

// Result implements apps.State. The output is the per-particle best
// fitness values, in sorted order. Sorting reports the swarm's fitness
// distribution rather than an arbitrary particle labelling, so the QoS
// metric compares like with like even when approximation reshuffles
// which particle found what.
func (s *state) Result() apps.Result {
	out := append([]float64(nil), s.pbestFit...)
	sort.Float64s(out)
	return apps.Result{
		Output:     out,
		Work:       s.rec.TotalWork(),
		OuterIters: s.rec.Iterations(),
		CtxSig:     s.rec.ContextSignature(),
	}
}

var _ apps.App = (*App)(nil)
