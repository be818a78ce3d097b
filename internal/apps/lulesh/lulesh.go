// Package lulesh implements the hydrodynamics benchmark modeled on
// LULESH (paper §2): a Lagrangian explicit shock-hydro simulation of a
// Sedov-style blast. A staggered-grid gamma-law gas with artificial
// viscosity is integrated on a 1D Lagrangian mesh; the energy deposited in
// the first element drives a shock through the domain.
//
// The property that makes LULESH the paper's running example is preserved:
// the outer loop advances simulated time with a Courant-limited timestep
// computed *from the evolving solution*, so the total number of outer-loop
// iterations depends on the internal approximation levels (paper Fig. 3 —
// approximation can both shrink and grow the iteration count, sometimes
// slowing the program down). Early-phase approximation corrupts the shock
// while it is strong and self-amplifies; late-phase approximation perturbs
// an almost-settled flow (paper Fig. 4/5).
//
// Approximable blocks (paper §2: loop perforation, loop truncation,
// memoization over the four surviving kernels):
//
//	forces          — staggered loop perforation over nodes: a skipped node
//	                  coasts on the force from its last computed step.
//	positions       — memoization over steps: a node's displacement u·dt is
//	                  recomputed every level+1 steps and reused in between.
//	strain          — loop perforation over elements: perforated elements
//	                  fall back to a cheap isentropic update (density from
//	                  the mesh, pressure along the isentrope, stale energy)
//	                  instead of the full pdV + EOS + viscosity update.
//	timeconstraints — loop truncation over elements: the Courant scan
//	                  inspects only a prefix of the mesh, so the limiting
//	                  element can be missed and the timestep overshoots.
package lulesh

import (
	"fmt"
	"math"

	"opprox/internal/approx"
	"opprox/internal/apps"
	"opprox/internal/qos"
	"opprox/internal/trace"
)

// Block indices in the order reported by Blocks.
const (
	BlockForces = iota
	BlockPositions
	BlockStrain
	BlockTimeConstraints
)

const (
	domainLen = 1.0
	tEnd      = 1.0
	blastE    = 1.0 // total deposited energy
	cflFactor = 0.35
	dtMax     = 2.5e-3
	dtMin     = 1e-7
	dtGrowth  = 1.08
	maxSteps  = 2500
	damping   = 0.99
	qLinear   = 0.5 // linear artificial-viscosity coefficient
	qQuad     = 1.2 // quadratic artificial-viscosity coefficient
	eFloor    = 1e-12
	eCap      = 1e3
	uMax      = 60.0

	costForce       = 5
	costPosFull     = 6
	costPosReuse    = 2
	costStrain      = 9
	costStrainCheap = 4
	costCourant     = 4
	costRest        = 26
)

// App is the LULESH benchmark.
type App struct{}

// New returns the LULESH benchmark application.
func New() *App { return &App{} }

// Name implements apps.App.
func (*App) Name() string { return "lulesh" }

// Blocks implements apps.App. The four kernels match the paper's four
// surviving approximable blocks for LULESH.
func (*App) Blocks() []approx.Block {
	return []approx.Block{
		{Name: "forces", Technique: approx.Perforation, MaxLevel: 5},
		{Name: "positions", Technique: approx.Memoization, MaxLevel: 5},
		{Name: "strain", Technique: approx.Perforation, MaxLevel: 5},
		{Name: "timeconstraints", Technique: approx.Truncation, MaxLevel: 5},
	}
}

// Params implements apps.App. The paper's LULESH inputs are the length of
// the cube mesh and the number of regions.
func (*App) Params() []apps.ParamSpec {
	return []apps.ParamSpec{
		{Name: "mesh", Values: []float64{32, 48, 64}, Default: 48},
		{Name: "regions", Values: []float64{2, 4}, Default: 2},
	}
}

// qosGain calibrates the energy-distortion metric: the blast concentrates
// the interesting energy in a thin shell around the shock front, so a
// mean-relative distortion understates localized damage. The gain restores
// the dynamic range the paper's 3D code exhibits (errors of a few percent
// for mild settings, tens of percent for aggressive ones).
const qosGain = 4

// QoS implements apps.App: the difference in final per-element energy
// versus the accurate execution, averaged across elements (paper §2).
func (*App) QoS(exact, approximate []float64) (float64, error) {
	d, err := qos.Distortion(exact, approximate)
	return qosGain * d, err
}

// state is one LULESH run between timesteps. The simulation is
// deterministic, so a clone needs no random stream.
type state struct {
	ne, nn     int
	courantMax int // MaxLevel of the timeconstraints block
	gamma, rho []float64
	r, u, disp []float64 // node positions, velocities, cached displacements
	m, e, pr   []float64 // element mass, specific internal energy, pressure
	qv, vol    []float64 // artificial viscosity, element volume
	mn, force  []float64 // nodal mass and force
	t, dt      float64
	rec        trace.Recorder
}

// Start implements apps.App: the region-dependent mesh and the blast
// deposit.
func (a *App) Start(p apps.Params) (apps.State, error) {
	pv := p.Vector(a.Params())
	ne := int(pv[0]) // elements
	regions := int(pv[1])
	if ne < 4 || regions < 1 {
		return nil, fmt.Errorf("lulesh: invalid parameters mesh=%d regions=%d", ne, regions)
	}
	nn := ne + 1 // nodes
	s := &state{
		ne: ne, nn: nn,
		courantMax: a.Blocks()[BlockTimeConstraints].MaxLevel,
		gamma:      make([]float64, ne),
		rho:        make([]float64, ne),
		r:          make([]float64, nn),
		u:          make([]float64, nn),
		disp:       make([]float64, nn),
		m:          make([]float64, ne),
		e:          make([]float64, ne),
		pr:         make([]float64, ne),
		qv:         make([]float64, ne),
		vol:        make([]float64, ne),
		mn:         make([]float64, nn),
		force:      make([]float64, nn),
	}

	// Region-dependent material: alternating gamma and initial density, a
	// 1D stand-in for LULESH's multi-region meshes.
	for i := 0; i < ne; i++ {
		reg := i * regions / ne
		s.gamma[i] = 1.4 + 0.05*float64(reg%2)
		s.rho[i] = 1.0 + 0.08*float64(reg%2)
	}

	dx0 := domainLen / float64(ne)
	for i := range s.r {
		s.r[i] = float64(i) * dx0
	}
	for i := 0; i < ne; i++ {
		s.vol[i] = dx0
		s.m[i] = s.rho[i] * dx0
		s.e[i] = 1e-6
	}
	// Sedov-style deposit: all blast energy in the central element, so the
	// shock runs both ways and the truncated Courant scan genuinely risks
	// missing the limiting element on the right.
	s.e[ne/2] = blastE / s.m[ne/2]
	for i := 0; i < ne; i++ {
		s.pr[i] = (s.gamma[i] - 1) * s.rho[i] * s.e[i]
	}
	for i := 0; i < ne; i++ { // nodal mass: half of each adjacent element
		s.mn[i] += s.m[i] / 2
		s.mn[i+1] += s.m[i] / 2
	}
	s.dt = s.courantDT(ne)
	return s, nil
}

// courantDT is the Courant-limited timestep over the first scan elements.
func (s *state) courantDT(scan int) float64 {
	gamma, pr, rho, u, r := s.gamma, s.pr, s.rho, s.u, s.r
	dt := dtMax
	for i := 0; i < scan; i++ {
		c := math.Sqrt(gamma[i] * math.Max(pr[i], 0) / math.Max(rho[i], 1e-9))
		du := u[i+1] - u[i]
		dx := math.Max(r[i+1]-r[i], 1e-9)
		denom := c + 4*math.Abs(du) + 1e-9
		if cand := cflFactor * dx / denom; cand < dt {
			dt = cand
		}
	}
	if dt < dtMin {
		dt = dtMin
	}
	return dt
}

// Step implements apps.State: one Courant-limited timestep. The loop ends
// when simulated time reaches tEnd, so how many steps a run takes
// depends on its approximation levels.
func (s *state) Step(sched approx.Schedule, baselineIters int) bool {
	step := s.rec.Iterations()
	if s.t >= tEnd || step >= maxSteps {
		return false
	}
	ne, nn, dt := s.ne, s.nn, s.dt
	gamma, rho, r, u, disp := s.gamma, s.rho, s.r, s.u, s.disp
	m, e, pr, qv, vol, mn, force := s.m, s.e, s.pr, s.qv, s.vol, s.mn, s.force
	s.rec.BeginIteration()
	levels := sched.LevelsAt(approx.PhaseOf(step, baselineIters, sched.Phases))

	// AB: forces_on_elements (staggered perforation over nodes).
	// Interior force is the pressure+viscosity jump across the node; a
	// skipped node coasts on the force from its last computed step.
	// Staggering the stride by the step index keeps the shock front
	// from permanently losing the same nodes.
	stride := levels[BlockForces] + 1
	computed := 0
	for i := 1; i < nn-1; i++ {
		if (i+step)%stride != 0 {
			continue
		}
		force[i] = (pr[i-1] + qv[i-1]) - (pr[i] + qv[i])
		computed++
	}
	force[0], force[nn-1] = 0, 0 // rigid walls
	s.rec.Call("forces", uint64(computed*costForce))

	// AB: position_of_elements (memoization over steps, staggered per
	// node). Velocities always integrate the current force, but a
	// node's displacement u·dt is recomputed only every level+1 steps;
	// in between the cached displacement is reused — the mesh coasts
	// on slightly stale motion.
	period := levels[BlockPositions] + 1
	posCost := 0
	for i := 0; i < nn; i++ {
		u[i] += force[i] / mn[i] * dt
	}
	u[0], u[nn-1] = 0, 0
	for i := 1; i < nn-1; i++ {
		if (i+step)%period == 0 {
			disp[i] = u[i] * dt
			posCost += costPosFull
		} else {
			posCost += costPosReuse
		}
		r[i] += disp[i]
	}
	// Settling flow: mild velocity damping drives the post-shock gas
	// toward the stable state the outer loop is waiting for. The speed
	// clamp keeps approximate runs that destabilize the integrator
	// finite instead of NaN.
	for i := 1; i < nn-1; i++ {
		u[i] *= damping
		if u[i] > uMax {
			u[i] = uMax
		} else if u[i] < -uMax {
			u[i] = -uMax
		}
	}
	// Keep the Lagrangian mesh untangled even under aggressive
	// approximation: enforce a minimal element width.
	for i := 1; i < nn; i++ {
		if r[i] < r[i-1]+1e-6 {
			r[i] = r[i-1] + 1e-6
		}
	}
	s.rec.Call("positions", uint64(posCost))

	// AB: strain_of_elements (perforation over elements): the full
	// update does volume change, pdV energy update, EOS, and
	// artificial viscosity. Perforated elements fall back to a cheap
	// isentropic update (density from the mesh, pressure along the
	// isentrope, stale energy and viscosity) — they stay consistent
	// with the moving mesh but skip the expensive thermodynamics.
	strainStride := levels[BlockStrain] + 1
	updated := 0
	for i := 0; i < ne; i++ {
		newVol := r[i+1] - r[i]
		if (i+step)%strainStride == 0 {
			dVol := newVol - vol[i]
			e[i] -= (pr[i] + qv[i]) * dVol / m[i]
			if e[i] < eFloor {
				e[i] = eFloor
			} else if e[i] > eCap {
				e[i] = eCap // unphysical blowup: degrade gracefully
			}
			vol[i] = newVol
			rho[i] = m[i] / newVol
			pr[i] = (gamma[i] - 1) * rho[i] * e[i]
			du := u[i+1] - u[i]
			if du < 0 { // compression: shock-capturing viscosity
				c := math.Sqrt(gamma[i] * pr[i] / rho[i])
				qv[i] = rho[i] * (qLinear*c*(-du) + qQuad*du*du)
			} else {
				qv[i] = 0
			}
			updated++
		} else {
			// Cheap path: density from the mesh, pressure along the
			// isentrope, stale energy. Artificial viscosity is always
			// refreshed — it is the term that keeps the explicit
			// scheme stable, and it is cheap.
			newRho := m[i] / newVol
			pr[i] *= math.Pow(newRho/rho[i], gamma[i])
			rho[i] = newRho
			vol[i] = newVol
			du := u[i+1] - u[i]
			if du < 0 {
				c := math.Sqrt(gamma[i] * pr[i] / rho[i])
				qv[i] = rho[i] * (qLinear*c*(-du) + qQuad*du*du)
			} else {
				qv[i] = 0
			}
		}
	}
	s.rec.Call("strain", uint64(updated*costStrain+(ne-updated)*costStrainCheap))

	// AB: calculate_timeconstraints (truncation over elements). A
	// truncated Courant scan can miss the limiting element; growth is
	// capped like LULESH's dtfixed logic.
	scan := approx.TruncatedCount(ne, levels[BlockTimeConstraints], s.courantMax)
	newDT := s.courantDT(scan)
	if newDT > dt*dtGrowth {
		newDT = dt * dtGrowth
	}
	dt = newDT
	if s.t+dt > tEnd {
		dt = tEnd - s.t
	}
	s.rec.Call("timeconstraints", uint64(scan*costCourant))

	// The rest of the timestep — boundary handling, reductions, I/O
	// staging, and the many small kernels the sensitivity profiling
	// rejected as non-approximable — is exact work on every iteration.
	s.rec.Overhead(uint64(ne * costRest))
	s.t += dt
	s.dt = dt
	return true
}

// Clone implements apps.State. gamma, m and mn never change after Start,
// so clones share them.
func (s *state) Clone() apps.State {
	c := *s
	for _, f := range []*[]float64{&c.rho, &c.r, &c.u, &c.disp, &c.e, &c.pr, &c.qv, &c.vol, &c.force} {
		*f = append([]float64(nil), *f...)
	}
	c.rec = s.rec.Clone()
	return &c
}

// Result implements apps.State: the final per-element energies.
func (s *state) Result() apps.Result {
	out := make([]float64, s.ne)
	for i := range out {
		v := s.e[i]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 1e9 // unusable output, but keep the metric finite
		}
		out[i] = v
	}
	return apps.Result{
		Output:     out,
		Work:       s.rec.TotalWork(),
		OuterIters: s.rec.Iterations(),
		CtxSig:     s.rec.ContextSignature(),
	}
}

var _ apps.App = (*App)(nil)
