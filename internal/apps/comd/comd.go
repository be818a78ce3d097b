// Package comd implements the molecular-dynamics benchmark modeled on the
// CoMD proxy application (paper §4.1): Lennard-Jones atoms on an FCC
// lattice integrated with velocity Verlet inside a classic timestep loop.
// The outer loop runs for an input-given number of timesteps — its
// iteration count depends on neither the other inputs nor the
// approximation levels, exactly the behavior the paper calls out for
// CoMD. Errors injected early ripple through atom positions and energies
// for the rest of the simulation, so early phases are far more sensitive
// than late ones.
//
// Approximable blocks (paper Table 1: loop perforation, loop truncation):
//
//	force    — loop perforation over atoms: skipped atoms keep the force
//	           from the previous step.
//	velocity — loop truncation over atoms: trailing atoms miss the second
//	           Verlet half-kick, degrading them to Euler integration.
//	position — loop perforation over atoms: skipped atoms do not move.
package comd

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"opprox/internal/approx"
	"opprox/internal/apps"
	"opprox/internal/qos"
	"opprox/internal/trace"
)

// Block indices in the order reported by Blocks.
const (
	BlockForce = iota
	BlockVelocity
	BlockPosition
)

const (
	dt        = 0.0045
	mass      = 1.0
	ljEpsilon = 1.0
	ljSigma   = 1.0
	initTemp  = 0.08 // background temperature; the hot spot is 20x hotter
	maxSpeed  = 25.0

	maxWraps = 1024 // see wrap1

	costPair     = 6
	costPosition = 3
	costVelocity = 3
	costRest     = 7
)

// App is the CoMD benchmark.
type App struct{}

// New returns the CoMD benchmark application.
func New() *App { return &App{} }

// Name implements apps.App.
func (*App) Name() string { return "comd" }

// Blocks implements apps.App.
func (*App) Blocks() []approx.Block {
	return []approx.Block{
		{Name: "force", Technique: approx.Perforation, MaxLevel: 5},
		{Name: "velocity", Technique: approx.Truncation, MaxLevel: 4},
		{Name: "position", Technique: approx.Perforation, MaxLevel: 3},
	}
}

// Params implements apps.App. The paper's CoMD inputs are the number of
// unit cells, the lattice parameter, and the number of timesteps.
func (*App) Params() []apps.ParamSpec {
	return []apps.ParamSpec{
		{Name: "cells", Values: []float64{2, 3}, Default: 2},
		{Name: "lattice", Values: []float64{1.55, 1.65}, Default: 1.6},
		{Name: "timesteps", Values: []float64{80, 160}, Default: 120},
	}
}

// qosGain calibrates the state-distortion metric to the dynamic range the
// paper's CoMD exhibits (a few percent for mild settings).
const qosGain = 2.5

// QoS implements apps.App: the difference in the final per-atom state
// (positions and energies) versus the accurate execution, averaged across
// atoms (paper §4.1).
func (*App) QoS(exact, approximate []float64) (float64, error) {
	d, err := qos.Distortion(exact, approximate)
	return qosGain * d, err
}

type vec3 struct{ x, y, z float64 }

func (v vec3) add(o vec3) vec3      { return vec3{v.x + o.x, v.y + o.y, v.z + o.z} }
func (v vec3) scale(s float64) vec3 { return vec3{v.x * s, v.y * s, v.z * s} }

// state is one CoMD run between timesteps. Every random draw happens in
// Start, so a clone needs no random stream.
type state struct {
	n, steps     int
	box, cutoff2 float64
	velocityMax  int // MaxLevel of the velocity block

	pos, posU, vel, force []vec3
	peAtom                []float64
	rec                   trace.Recorder
}

// Start implements apps.App: the jittered lattice, the hot-spot
// velocities and the exact initial forces.
func (a *App) Start(p apps.Params) (apps.State, error) {
	pv := p.Vector(a.Params())
	cells := int(pv[0])
	lat := pv[1]
	steps := int(pv[2])
	if cells < 1 || lat <= 0 || steps < 1 {
		return nil, fmt.Errorf("comd: invalid parameters cells=%d lattice=%g timesteps=%d", cells, lat, steps)
	}
	rng := rand.New(rand.NewSource(apps.Seed(a.Name(), p)))

	// FCC lattice: 4 atoms per unit cell.
	basis := []vec3{{0, 0, 0}, {0.5, 0.5, 0}, {0.5, 0, 0.5}, {0, 0.5, 0.5}}
	n := 4 * cells * cells * cells
	box := float64(cells) * lat
	cutoff := 2.5 * ljSigma
	if half := box / 2; cutoff > half {
		cutoff = half
	}

	// Jittered lattice: small random displacements model point defects and
	// make the dynamics anharmonic enough that perturbations grow instead
	// of ringing forever in a perfect crystal.
	const jitter = 0.04
	pos := make([]vec3, 0, n)
	for ix := 0; ix < cells; ix++ {
		for iy := 0; iy < cells; iy++ {
			for iz := 0; iz < cells; iz++ {
				for _, b := range basis {
					pos = append(pos, vec3{
						(float64(ix)+b.x)*lat + rng.NormFloat64()*jitter,
						(float64(iy)+b.y)*lat + rng.NormFloat64()*jitter,
						(float64(iz)+b.z)*lat + rng.NormFloat64()*jitter,
					})
				}
			}
		}
	}
	posU := make([]vec3, n) // unwrapped positions (diagnostic output)
	copy(posU, pos)
	vel := make([]vec3, n)
	var mom vec3
	// Hot-spot quench: atoms in one corner start much hotter, so the run
	// opens with violent non-equilibrium heat flow and gradually
	// equilibrates. Approximation errors couple to the strong early
	// gradients far more than to the near-equilibrated late state — the
	// source of CoMD's phase sensitivity.
	for i := range vel {
		temp := initTemp
		if pos[i].x < box/3 && pos[i].y < box/3 {
			temp *= 20
		}
		sigma := math.Sqrt(temp / mass)
		vel[i] = vec3{rng.NormFloat64() * sigma, rng.NormFloat64() * sigma, rng.NormFloat64() * sigma}
		mom = mom.add(vel[i])
	}
	mom = mom.scale(1 / float64(n)) // remove net drift
	for i := range vel {
		vel[i] = vel[i].add(mom.scale(-1))
	}

	s := &state{
		n: n, steps: steps, box: box, cutoff2: cutoff * cutoff,
		velocityMax: a.Blocks()[BlockVelocity].MaxLevel,
		pos:         pos, posU: posU, vel: vel,
		force:  make([]vec3, n),
		peAtom: make([]float64, n),
	}
	s.computeForces(s.force, s.peAtom, func(int) bool { return true }) // initial forces (exact)
	return s, nil
}

// pairTerm is what an in-range pair i<j adds to atom i: the force
// fmag·(dx, dy, dz) and half the pair's potential energy. Atom j gets
// the negated force and the same energy share.
type pairTerm struct{ fx, fy, fz, e float64 }

// forceScratch is computeForces' working memory: an n×n pair table whose
// row i holds the terms of pairs (i, j>i), and the active flags. It
// lives in forcePool, never in a state, so clones and checkpoints do not
// carry it and concurrent runs each get their own.
type forceScratch struct {
	terms  []pairTerm
	active []bool
}

var forcePool = sync.Pool{New: func() any { return new(forceScratch) }}

// computeForces evaluates the Lennard-Jones force and potential-energy
// share of every active atom into force and pe; inactive (perforated)
// atoms keep their previous entries.
//
// Each unordered pair with an active atom is evaluated once, and every
// active atom i sums its pair terms over j in ascending order, exactly
// as a direct double loop over j would. For j < i it subtracts the term
// stored for (j, i): the separation is odd-symmetric under minImage, so
// r² and fmag are the same, fmag·(-dx) is -(fmag·dx), and a + (-c) is
// a - c. An out-of-range pair stores a zero term; adding a zero leaves
// the sum unchanged because a sum that starts at +0 never reaches -0.
func (s *state) computeForces(force []vec3, pe []float64, active func(i int) bool) int {
	n, pos, box, half, cutoff2 := s.n, s.pos, s.box, s.box/2, s.cutoff2
	sc := forcePool.Get().(*forceScratch)
	defer forcePool.Put(sc)
	if cap(sc.terms) < n*n {
		sc.terms = make([]pairTerm, n*n)
		sc.active = make([]bool, n)
	}
	terms, act := sc.terms[:n*n], sc.active[:n]
	evaluated := 0
	for i := range act {
		act[i] = active(i)
		if act[i] {
			evaluated++
		}
	}
	for i := 0; i < n; i++ {
		var f vec3
		e := 0.0
		if act[i] {
			for j := 0; j < i; j++ {
				t := &terms[j*n+i]
				f = vec3{f.x - t.fx, f.y - t.fy, f.z - t.fz}
				e += t.e
			}
		}
		row := terms[i*n : (i+1)*n]
		for j := i + 1; j < n; j++ {
			if !act[i] && !act[j] {
				continue
			}
			dx := minImage(pos[i].x-pos[j].x, box, half)
			dy := minImage(pos[i].y-pos[j].y, box, half)
			dz := minImage(pos[i].z-pos[j].z, box, half)
			r2 := dx*dx + dy*dy + dz*dz
			var t pairTerm
			if !(r2 > cutoff2 || r2 < 1e-12) {
				inv2 := ljSigma * ljSigma / r2
				inv6 := inv2 * inv2 * inv2
				// LJ: U = 4ε(r⁻¹² - r⁻⁶); F = 24ε(2r⁻¹² - r⁻⁶)/r².
				fmag := 24 * ljEpsilon * (2*inv6*inv6 - inv6) / r2
				t = pairTerm{fmag * dx, fmag * dy, fmag * dz, 2 * ljEpsilon * (inv6*inv6 - inv6)} // half of 4ε(...): pair shared
			}
			row[j] = t
			if act[i] {
				f = f.add(vec3{t.fx, t.fy, t.fz})
				e += t.e
			}
		}
		if act[i] {
			force[i] = f
			pe[i] = e
		}
	}
	return evaluated
}

// Step implements apps.State: one velocity-Verlet timestep.
func (s *state) Step(sched approx.Schedule, baselineIters int) bool {
	step := s.rec.Iterations()
	if step >= s.steps {
		return false
	}
	n, pos, posU, vel, force, box := s.n, s.pos, s.posU, s.vel, s.force, s.box
	s.rec.BeginIteration()
	levels := sched.LevelsAt(approx.PhaseOf(step, baselineIters, sched.Phases))

	// AB: first velocity half-kick (always runs for every atom).
	for i := 0; i < n; i++ {
		vel[i] = clampSpeed(vel[i].add(force[i].scale(0.5 * dt / mass)))
	}

	// AB: position update. The full velocity-Verlet update advances
	// r += v·dt + ½(f/m)·dt²; perforated atoms drop the acceleration
	// term (first-order drift) — a tiny per-step error that trajectory
	// divergence amplifies over the remaining run.
	posStride := levels[BlockPosition] + 1
	full := 0
	for i := 0; i < n; i++ {
		d := vel[i].scale(dt)
		if (i+step)%posStride == 0 {
			d = d.add(force[i].scale(0.5 * dt * dt / mass))
			full++
		}
		pos[i] = wrap(pos[i].add(d), box)
		posU[i] = posU[i].add(d)
	}
	s.rec.Call("position", uint64((n+full)*costPosition))

	// AB: force computation (rotating perforation over atoms): a
	// skipped atom coasts on its previous force until its next turn.
	stride := levels[BlockForce] + 1
	evaluated := s.computeForces(force, s.peAtom, func(i int) bool { return (i+step)%stride == 0 })
	s.rec.Call("force", uint64(evaluated*n*costPair))

	// AB: second velocity half-kick (truncation over atoms). Trailing
	// atoms skip it, degrading them from velocity Verlet to plain
	// Euler integration — a small per-step error that trajectory
	// divergence amplifies over the remaining timesteps.
	kicked := approx.Truncate(n, levels[BlockVelocity], s.velocityMax, func(i int) {
		vel[i] = clampSpeed(vel[i].add(force[i].scale(0.5 * dt / mass)))
	})
	s.rec.Call("velocity", uint64((n+kicked)*costVelocity))

	// Neighbor-list maintenance, PBC bookkeeping, reductions and halo
	// exchange stand-ins: exact work every step.
	s.rec.Overhead(uint64(n * n * costRest))
	return true
}

// Clone implements apps.State.
func (s *state) Clone() apps.State {
	c := *s
	c.pos = append([]vec3(nil), s.pos...)
	c.posU = append([]vec3(nil), s.posU...)
	c.vel = append([]vec3(nil), s.vel...)
	c.force = append([]vec3(nil), s.force...)
	c.peAtom = append([]float64(nil), s.peAtom...)
	c.rec = s.rec.Clone()
	return &c
}

// Result implements apps.State. The output is the final per-atom state
// — unwrapped positions plus potential and kinetic energies, evaluated
// exactly from the final configuration (output assembly, not part of
// any AB). Early approximation lets trajectories diverge for the rest of
// the run, so the final state carries the full ripple effect the paper
// describes for CoMD.
func (s *state) Result() apps.Result {
	n := s.n
	pe := make([]float64, n)
	s.computeForces(make([]vec3, n), pe, func(int) bool { return true })
	out := make([]float64, 0, 5*n)
	for i := 0; i < n; i++ {
		out = append(out, s.posU[i].x, s.posU[i].y, s.posU[i].z)
	}
	out = append(out, pe...)
	for i := 0; i < n; i++ {
		v := s.vel[i]
		out = append(out, 0.5*mass*(v.x*v.x+v.y*v.y+v.z*v.z))
	}
	return apps.Result{
		Output:     out,
		Work:       s.rec.TotalWork(),
		OuterIters: s.rec.Iterations(),
		CtxSig:     s.rec.ContextSignature(),
	}
}

// minImage folds a separation into [-half, half], half being box/2.
func minImage(d, box, half float64) float64 {
	for d > half {
		d -= box
	}
	for d < -half {
		d += box
	}
	return d
}

func wrap(v vec3, box float64) vec3 {
	return vec3{wrap1(v.x, box), wrap1(v.y, box), wrap1(v.z, box)}
}

// wrap1 folds x into [0, box). An atom moves a fraction of a box per
// step, so the loops run once or not at all — except for a runaway atom:
// a near-collision under heavy force perforation can throw it millions
// of boxes in one step, and beyond maxWraps boxes the fold starts with
// math.Mod rather than looping for minutes (or forever, at ±Inf).
func wrap1(x, box float64) float64 {
	if math.Abs(x) > maxWraps*box {
		x = math.Mod(x, box)
	}
	for x >= box {
		x -= box
	}
	for x < 0 {
		x += box
	}
	return x
}

// clampSpeed bounds atom speed so an approximate run that destabilizes the
// integrator degrades gracefully instead of producing NaN energies.
func clampSpeed(v vec3) vec3 {
	s2 := v.x*v.x + v.y*v.y + v.z*v.z
	if s2 <= maxSpeed*maxSpeed {
		return v
	}
	return v.scale(maxSpeed / math.Sqrt(s2))
}

var _ apps.App = (*App)(nil)
