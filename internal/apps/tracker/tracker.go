// Package tracker implements the computer-vision benchmark modeled on
// PARSEC's Bodytrack (paper §4.1): an annealed particle filter tracks an
// articulated pose through a sequence of video frames. The outer loop
// enumerates (frame, annealing-layer) pairs; its iteration count is set by
// the frame count and the number of annealing layers, but — as the paper
// notes — when the min-particles threshold is small, the iteration count
// also starts to depend on the approximation levels, because degenerate
// particle weights trigger refinement repeats.
//
// Approximable blocks (paper Table 1: loop perforation, input tuning):
//
//	likelihood  — loop perforation over particles: skipped particles keep
//	              their previous weight.
//	features    — loop perforation over image rows during feature
//	              extraction: the estimate is rescaled from the sampled
//	              rows, trading noise for work.
//	minparticles — parameter tuning of the min-particles threshold: lower
//	              thresholds accept more degenerate layers without repeats.
//	layers      — parameter tuning of the effective annealing-layer count:
//	              higher levels run fewer layers per frame.
package tracker

import (
	"fmt"
	"math"
	"math/rand"

	"opprox/internal/approx"
	"opprox/internal/apps"
	"opprox/internal/qos"
	"opprox/internal/trace"
)

// Block indices in the order reported by Blocks.
const (
	BlockLikelihood = iota
	BlockFeatures
	BlockMinParticles
	BlockLayers
)

const (
	numJoints   = 8
	imageRows   = 24
	baseNoise   = 0.35
	layerBeta   = 1.2
	annealRatio = 0.55
	featureSD   = 0.08
	maxRepeats  = 1 // at most one refinement repeat per (frame, layer)

	costLikelihood = 6
	costFeatureRow = 4
	costResample   = 2
	costRest       = 7
)

// App is the Bodytrack-style benchmark.
type App struct{}

// New returns the tracker benchmark application.
func New() *App { return &App{} }

// Name implements apps.App.
func (*App) Name() string { return "tracker" }

// Blocks implements apps.App.
func (*App) Blocks() []approx.Block {
	return []approx.Block{
		{Name: "likelihood", Technique: approx.Perforation, MaxLevel: 5},
		{Name: "features", Technique: approx.Perforation, MaxLevel: 4},
		{Name: "minparticles", Technique: approx.ParamTuning, MaxLevel: 3},
		{Name: "layers", Technique: approx.ParamTuning, MaxLevel: 2},
	}
}

// Params implements apps.App. The paper's Bodytrack inputs are the number
// of annealing layers, particles, and frames.
func (*App) Params() []apps.ParamSpec {
	return []apps.ParamSpec{
		{Name: "layers", Values: []float64{3, 5}, Default: 4},
		{Name: "particles", Values: []float64{60, 120}, Default: 100},
		{Name: "frames", Values: []float64{8, 16}, Default: 12},
	}
}

// qosGain calibrates the pose-distortion metric to the paper's Bodytrack
// dynamic range.
const qosGain = 2.0

// QoS implements apps.App (see package comment).
func (*App) QoS(exact, approximate []float64) (float64, error) {
	d, err := qos.WeightedVectorDistortion(exact, approximate)
	return qosGain * d, err
}

// truePose returns the ground-truth articulated pose at frame t: each
// joint follows a smooth periodic trajectory with a distinct amplitude, so
// pose components have very different magnitudes (the QoS metric's
// weighting matters).
func truePose(t int) []float64 {
	pose := make([]float64, numJoints)
	for j := 0; j < numJoints; j++ {
		amp := 0.5 + 1.5*float64(j)      // small fingers → large torso
		freq := 0.15 + 0.04*float64(j%3) // distinct joint dynamics
		phase := 0.7 * float64(j)        //
		pose[j] = amp * (1.2 + math.Sin(freq*float64(t)+phase))
	}
	return pose
}

// state is one tracker run between (frame, layer) iterations: a state
// machine over the frame f, its annealing layer l and the layer's repeat
// count. Its random stream lives in src, which copies by value, so a
// clone continues the stream exactly.
type state struct {
	particles, frames int
	layersIn          int
	layersMax         int   // MaxLevel of the layers block
	minParticlesMax   int   // MaxLevel of the minparticles block
	seed              int64 // keys the synthetic image noise
	src               apps.Source
	rng               *rand.Rand // draws from src

	// pts holds the particles as flat rows, particle i in
	// pts[i*numJoints:(i+1)*numJoints]; spare is the same size and is
	// where resample writes the next set before the two swap.
	pts, spare []float64
	weights    []float64
	out        []float64 // one pose estimate per finished frame

	f, l, repeats int
	// layers is the current frame's layer count, fixed at its first
	// iteration; 0 until that iteration runs.
	layers int
	truth  []float64
	rec    trace.Recorder
}

// Start implements apps.App: the initial particle cloud around frame 0's
// pose.
func (a *App) Start(p apps.Params) (apps.State, error) {
	pv := p.Vector(a.Params())
	layersIn := int(pv[0])
	particles := int(pv[1])
	frames := int(pv[2])
	if layersIn < 1 || particles < 4 || frames < 1 {
		return nil, fmt.Errorf("tracker: invalid parameters layers=%d particles=%d frames=%d", layersIn, particles, frames)
	}
	s := &state{
		particles:       particles,
		frames:          frames,
		layersIn:        layersIn,
		layersMax:       a.Blocks()[BlockLayers].MaxLevel,
		minParticlesMax: a.Blocks()[BlockMinParticles].MaxLevel,
		seed:            apps.Seed(a.Name(), p),
		weights:         make([]float64, particles),
		out:             make([]float64, 0, frames*numJoints),
	}
	s.src.Seed(s.seed)
	s.rng = rand.New(&s.src)

	// Particle state: each particle is a pose hypothesis.
	s.pts, s.spare = particleBuffers(particles)
	init := truePose(0)
	for i := range s.weights {
		for j := 0; j < numJoints; j++ {
			s.pts[i*numJoints+j] = init[j] + s.rng.NormFloat64()*baseNoise
		}
		s.weights[i] = 1 / float64(particles)
	}
	return s, nil
}

// Step implements apps.State: one annealing layer (or its repeat) of the
// current frame.
func (s *state) Step(sched approx.Schedule, baselineIters int) bool {
	if s.f >= s.frames {
		return false
	}
	f, l, particles, weights := s.f, s.l, s.particles, s.weights
	iter := s.rec.Iterations()
	levels := sched.LevelsAt(approx.PhaseOf(iter, baselineIters, sched.Phases))
	if s.layers == 0 {
		// The effective layer count is phase-tunable; sample the level
		// from the phase this frame's first layer lands in.
		s.truth = truePose(f)
		layers := int(math.Round(approx.TunedValue(float64(s.layersIn), math.Max(1, float64(s.layersIn)/2), levels[BlockLayers], s.layersMax)))
		s.layers = max(layers, 1)
	}
	truth, layers := s.truth, s.layers
	s.rec.BeginIteration()

	// AB: feature extraction (perforation over image rows). Each
	// row contributes an independently noisy partial estimate of
	// the observed pose — the per-row noise is a pure function of
	// (input seed, frame, row, joint), so the synthetic image is
	// identical across runs. Sampling fewer rows loses averaging
	// and yields a noisier feature vector.
	features := make([]float64, numJoints)
	rows := approx.Perforate(imageRows, levels[BlockFeatures], func(y int) {
		for j := 0; j < numJoints; j++ {
			noise := apps.Noise(s.seed, int64(f), int64(y), int64(j))
			features[j] += truth[j] * (1 + noise*featureSD)
		}
	})
	s.rec.Call("features", uint64(rows*numJoints*costFeatureRow))
	for j := range features {
		features[j] /= float64(rows)
	}

	// AB: likelihood weighting (perforation over particles). A
	// skipped particle borrows the weight of the most recently
	// evaluated particle — cheap, and increasingly wrong as the
	// stride grows.
	pts := s.pts
	beta := layerBeta * float64(l+1) / float64(layers)
	weighted := approx.Perforate(particles, levels[BlockLikelihood], func(i int) {
		d2 := 0.0
		pt := pts[i*numJoints : (i+1)*numJoints]
		for j := 0; j < numJoints; j++ {
			d := pt[j] - features[j]
			d2 += d * d / (0.05 + features[j]*features[j]*0.01)
		}
		weights[i] = math.Exp(-beta * d2)
	})
	s.rec.Call("likelihood", uint64(weighted*numJoints*costLikelihood))
	if stride := levels[BlockLikelihood] + 1; stride > 1 {
		for i := 0; i < particles; i++ {
			if i%stride != 0 {
				weights[i] = weights[i-i%stride]
			}
		}
	}

	// Normalize; measure effective sample size.
	sumW := 0.0
	for _, w := range weights {
		sumW += w
	}
	if sumW < 1e-300 {
		for i := range weights {
			weights[i] = 1 / float64(particles)
		}
		sumW = 1
	} else {
		for i := range weights {
			weights[i] /= sumW
		}
	}
	ess := 0.0
	for _, w := range weights {
		ess += w * w
	}
	ess = 1 / ess

	// AB: min-particles (parameter tuning). The accurate threshold
	// demands a healthy particle set; tuning lowers the bar.
	minParticles := approx.TunedValue(float64(particles)/3, 2, levels[BlockMinParticles], s.minParticlesMax)

	// Systematic resampling.
	resample(s.spare, pts, weights, s.rng)
	s.pts, s.spare = s.spare, pts
	pts = s.pts
	for i := range weights {
		weights[i] = 1 / float64(particles)
	}
	s.rec.Call("minparticles", uint64(particles*costResample))

	// Perturb with geometrically annealed noise: each layer
	// shrinks the search radius by a fixed factor, so dropping a
	// layer directly coarsens the final estimate.
	shrink := baseNoise * math.Pow(annealRatio, float64(l))
	for k := range pts {
		pts[k] += s.rng.NormFloat64() * shrink
	}
	// Image loading, projection math and model bookkeeping: exact
	// work on every (frame, layer) iteration.
	s.rec.Overhead(uint64(particles * numJoints * costRest))

	// Degenerate layer: repeat once to recover diversity. This is
	// where the iteration count couples to the approximation
	// levels when min-particles is left strict.
	if ess < minParticles && s.repeats < maxRepeats {
		s.repeats++
		return true
	}
	s.repeats = 0
	if s.l++; s.l < layers {
		return true
	}

	// Frame estimate: mean pose after the final layer.
	est := make([]float64, numJoints)
	for i := 0; i < particles; i++ {
		for j := range est {
			est[j] += pts[i*numJoints+j]
		}
	}
	for j := range est {
		est[j] /= float64(particles)
	}
	s.out = append(s.out, est...)
	s.f, s.l, s.layers = f+1, 0, 0
	return true
}

// Clone implements apps.State. The frame's truth pose is never written,
// so clones share it; the particle rows and their spare are the clone's
// own.
func (s *state) Clone() apps.State {
	c := *s
	c.rng = rand.New(&c.src)
	c.pts, c.spare = particleBuffers(s.particles)
	copy(c.pts, s.pts)
	c.weights = append([]float64(nil), s.weights...)
	c.out = append(make([]float64, 0, cap(s.out)), s.out...)
	c.rec = s.rec.Clone()
	return &c
}

// Result implements apps.State: the estimated pose of every finished
// frame.
func (s *state) Result() apps.Result {
	return apps.Result{
		Output:     append([]float64(nil), s.out...),
		Work:       s.rec.TotalWork(),
		OuterIters: s.rec.Iterations(),
		CtxSig:     s.rec.ContextSignature(),
	}
}

// particleBuffers allocates the particle rows and their spare in one
// block.
func particleBuffers(particles int) (pts, spare []float64) {
	n := particles * numJoints
	buf := make([]float64, 2*n)
	return buf[:n:n], buf[n:]
}

// resample draws a new particle set from src into dst with systematic
// resampling. Both hold len(weights) equal rows, one per particle.
func resample(dst, src, weights []float64, rng *rand.Rand) {
	n := len(weights)
	w := len(src) / n
	u := rng.Float64() / float64(n)
	cum := 0.0
	k := 0
	for i := 0; i < n; i++ {
		target := u + float64(i)/float64(n)
		for cum+weights[k] < target && k < n-1 {
			cum += weights[k]
			k++
		}
		copy(dst[i*w:(i+1)*w], src[k*w:(k+1)*w])
	}
}

var _ apps.App = (*App)(nil)
