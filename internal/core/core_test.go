package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"opprox/internal/approx"
	"opprox/internal/apps"
	"opprox/internal/qos"
	"opprox/internal/trace"
)

// toyApp is an analytically controlled application: 20 fixed outer
// iterations, two blocks, degradation that is linear in the level and
// strongly weighted toward early phases, work savings linear in the level.
// Its clean polynomial structure lets the tests assert that the whole
// train→model→optimize pipeline recovers the right decisions.
type toyApp struct{}

func (toyApp) Name() string { return "toy" }

func (toyApp) Blocks() []approx.Block {
	return []approx.Block{
		{Name: "alpha", Technique: approx.Perforation, MaxLevel: 3},
		{Name: "beta", Technique: approx.Memoization, MaxLevel: 2},
	}
}

func (toyApp) Params() []apps.ParamSpec {
	return []apps.ParamSpec{
		{Name: "size", Values: []float64{10, 20}, Default: 10},
	}
}

const toyIters = 20

// phaseWeight makes early iterations 6x as damaging as late ones.
func toyPhaseWeight(iter int) float64 {
	return 6 - 5*float64(iter)/float64(toyIters-1)
}

func (a toyApp) Start(p apps.Params) (apps.State, error) {
	size := p.Vector(a.Params())[0]
	return &toyState{sig: "alpha>beta", iterate: func(rec *trace.Recorder, iter int, lv approx.Config) float64 {
		rec.Call("alpha", uint64((8-2*lv[0])*int(size)))
		rec.Call("beta", uint64((6-2*lv[1])*int(size)))
		rec.Overhead(uint64(14 * size))
		return toyPhaseWeight(iter) * (float64(lv[0]) + 1.5*float64(lv[1]))
	}}, nil
}

// toyState is the stepped run every core test app shares: toyIters
// fixed iterations, each recording the work and returning the damage
// its app's iterate function assigns to that iteration's levels.
type toyState struct {
	iterate func(rec *trace.Recorder, iter int, lv approx.Config) float64
	sig     string
	damage  float64
	rec     trace.Recorder
}

func (s *toyState) Step(sched approx.Schedule, baselineIters int) bool {
	iter := s.rec.Iterations()
	if iter >= toyIters {
		return false
	}
	s.rec.BeginIteration()
	s.damage += s.iterate(&s.rec, iter, sched.LevelsAt(approx.PhaseOf(iter, baselineIters, sched.Phases)))
	return true
}

func (s *toyState) Clone() apps.State {
	c := *s
	c.rec = s.rec.Clone()
	return &c
}

func (s *toyState) Result() apps.Result {
	return apps.Result{
		Output:     []float64{100 + s.damage, 50},
		Work:       s.rec.TotalWork(),
		OuterIters: s.rec.Iterations(),
		CtxSig:     s.sig,
	}
}

func (toyApp) QoS(exact, approximate []float64) (float64, error) {
	return qos.Distortion(exact, approximate)
}

var _ apps.App = toyApp{}

func fastOptions() Options {
	o := DefaultOptions()
	o.Phases = 4
	o.JointSamplesPerPhase = 10
	o.Folds = 5
	o.MaxPolyDegree = 3
	return o
}

func trainToy(t *testing.T) (*apps.Runner, *Trained) {
	t.Helper()
	runner := apps.NewRunner(toyApp{})
	tr, err := Train(runner, fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	return runner, tr
}

func TestTrainToyModelsAccurate(t *testing.T) {
	_, tr := trainToy(t)
	if tr.Phases != 4 {
		t.Fatalf("phases = %d, want 4", tr.Phases)
	}
	if len(tr.Records) == 0 {
		t.Fatal("no training records")
	}
	sR2, dR2 := tr.ModelQuality()
	if sR2 < 0.95 || dR2 < 0.95 {
		t.Fatalf("toy models should be near-perfect: speedup R²=%.3f deg R²=%.3f", sR2, dR2)
	}
}

func TestPredictPhaseMatchesMeasurement(t *testing.T) {
	runner, tr := trainToy(t)
	p := apps.DefaultParams(toyApp{})
	for ph := 0; ph < 4; ph++ {
		cfg := approx.Config{2, 1}
		spd, deg, err := tr.PredictPhase(p, ph, cfg, false)
		if err != nil {
			t.Fatal(err)
		}
		ev, err := runner.Evaluate(p, approx.SinglePhaseSchedule(4, ph, cfg))
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(spd-ev.Speedup) > 0.05*ev.Speedup {
			t.Fatalf("phase %d speedup pred %.3f vs actual %.3f", ph, spd, ev.Speedup)
		}
		if math.Abs(deg-ev.Degradation) > 0.35*ev.Degradation+0.4 {
			t.Fatalf("phase %d deg pred %.3f vs actual %.3f", ph, deg, ev.Degradation)
		}
	}
}

func TestPredictPhaseValidation(t *testing.T) {
	_, tr := trainToy(t)
	p := apps.DefaultParams(toyApp{})
	if _, _, err := tr.PredictPhase(p, 9, approx.Config{0, 0}, false); err == nil {
		t.Fatal("want phase range error")
	}
	if _, _, err := tr.PredictPhase(p, 0, approx.Config{9, 0}, false); err == nil {
		t.Fatal("want config validation error")
	}
}

func TestOptimizePrefersLatePhases(t *testing.T) {
	_, tr := trainToy(t)
	p := apps.DefaultParams(toyApp{})
	sched, pred, err := tr.Optimize(p, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.Validate(tr.Blocks); err != nil {
		t.Fatal(err)
	}
	if pred.Degradation > 10 {
		t.Fatalf("predicted degradation %.2f exceeds budget 10", pred.Degradation)
	}
	// Damage per level is 6x higher in phase 0 than phase 3, so the total
	// approximation weight must lean late.
	early := sched.Levels[0][0] + sched.Levels[0][1]
	late := sched.Levels[3][0] + sched.Levels[3][1]
	if late < early {
		t.Fatalf("optimizer put more approximation early (%d) than late (%d): %s", early, late, sched)
	}
	if late == 0 {
		t.Fatalf("optimizer found nothing despite clean models: %s", sched)
	}
}

func TestOptimizeBudgetMonotone(t *testing.T) {
	runner, tr := trainToy(t)
	p := apps.DefaultParams(toyApp{})
	prev := 0.0
	for _, budget := range []float64{2, 5, 10, 25} {
		sched, _, err := tr.Optimize(p, budget)
		if err != nil {
			t.Fatal(err)
		}
		ev, err := runner.Evaluate(p, sched)
		if err != nil {
			t.Fatal(err)
		}
		if ev.Degradation > budget {
			t.Fatalf("budget %g violated: measured %.2f", budget, ev.Degradation)
		}
		if ev.Speedup+1e-9 < prev {
			t.Fatalf("speedup not monotone in budget: %.3f after %.3f", ev.Speedup, prev)
		}
		prev = ev.Speedup
	}
}

func TestOptimizeZeroBudget(t *testing.T) {
	_, tr := trainToy(t)
	sched, pred, err := tr.Optimize(apps.DefaultParams(toyApp{}), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !sched.IsAccurate() {
		t.Fatalf("zero budget must yield the accurate schedule, got %s", sched)
	}
	if pred.Speedup != 1 || pred.Degradation != 0 {
		t.Fatalf("zero-budget prediction %+v", pred)
	}
}

func TestOptimizeNegativeBudget(t *testing.T) {
	_, tr := trainToy(t)
	if _, _, err := tr.Optimize(apps.DefaultParams(toyApp{}), -1); err == nil {
		t.Fatal("want error for negative budget")
	}
}

func TestBudgetPolicies(t *testing.T) {
	runner := apps.NewRunner(toyApp{})
	for _, policy := range []BudgetPolicy{BudgetPolicyROI, BudgetPolicyUniform} {
		opts := fastOptions()
		opts.BudgetPolicy = policy
		tr, err := Train(runner, opts)
		if err != nil {
			t.Fatalf("%v: %v", policy, err)
		}
		sched, _, err := tr.Optimize(apps.DefaultParams(toyApp{}), 8)
		if err != nil {
			t.Fatalf("%v: %v", policy, err)
		}
		if err := sched.Validate(tr.Blocks); err != nil {
			t.Fatalf("%v: %v", policy, err)
		}
	}
	if BudgetPolicyROI.String() != "roi" || BudgetPolicyUniform.String() != "uniform" {
		t.Fatal("policy names wrong")
	}
	if BudgetPolicy(9).String() == "" {
		t.Fatal("unknown policy should still render")
	}
}

func TestPhaseAgnosticOracleToy(t *testing.T) {
	runner := apps.NewRunner(toyApp{})
	p := apps.DefaultParams(toyApp{})
	res, err := PhaseAgnosticOracle(runner, p, 15)
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluated != approx.NumConfigs(toyApp{}.Blocks())-1 {
		t.Fatalf("oracle evaluated %d configs, want %d", res.Evaluated, approx.NumConfigs(toyApp{}.Blocks())-1)
	}
	if res.Degradation > 15 {
		t.Fatalf("oracle exceeded budget: %.2f", res.Degradation)
	}
	if res.Speedup < 1 {
		t.Fatalf("oracle speedup %.3f < 1", res.Speedup)
	}
	// With budget 0 only the accurate config fits.
	res0, err := PhaseAgnosticOracle(runner, p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res0.Config.IsAccurate() || res0.Speedup != 1 {
		t.Fatalf("zero-budget oracle picked %v", res0.Config)
	}
}

func TestParamCombos(t *testing.T) {
	specs := []apps.ParamSpec{
		{Name: "a", Values: []float64{1, 2}},
		{Name: "b", Values: []float64{3, 4, 5}},
	}
	rng := rand.New(rand.NewSource(1))
	combos := ParamCombos(specs, 0, rng)
	if len(combos) != 6 {
		t.Fatalf("combos = %d, want 6", len(combos))
	}
	seen := map[string]bool{}
	for _, c := range combos {
		if seen[c.Key()] {
			t.Fatalf("duplicate combo %s", c.Key())
		}
		seen[c.Key()] = true
	}
	capped := ParamCombos(specs, 4, rng)
	if len(capped) != 4 {
		t.Fatalf("capped combos = %d, want 4", len(capped))
	}
}

func TestFindPhaseGranularity(t *testing.T) {
	runner := apps.NewRunner(toyApp{})
	rng := rand.New(rand.NewSource(1))
	n, err := FindPhaseGranularity(runner, apps.DefaultParams(toyApp{}), 2.0, 8, rng)
	if err != nil {
		t.Fatal(err)
	}
	if n < 2 || n > 8 || n&(n-1) != 0 {
		t.Fatalf("phase count %d not a power of two in [2,8]", n)
	}
	// A huge threshold stops immediately at 2.
	n2, err := FindPhaseGranularity(runner, apps.DefaultParams(toyApp{}), 1e9, 8, rng)
	if err != nil {
		t.Fatal(err)
	}
	if n2 != 2 {
		t.Fatalf("huge threshold should settle at 2 phases, got %d", n2)
	}
}

func TestOptionsValidation(t *testing.T) {
	bad := []func(*Options){
		func(o *Options) { o.Phases = -1 },
		func(o *Options) { o.JointSamplesPerPhase = 0 },
		func(o *Options) { o.TargetR2 = 0 },
		func(o *Options) { o.TargetR2 = 1.5 },
		func(o *Options) { o.MaxPolyDegree = 0 },
		func(o *Options) { o.Folds = 1 },
		func(o *Options) { o.ConfidenceP = 0 },
	}
	for i, mutate := range bad {
		o := DefaultOptions()
		mutate(&o)
		if err := o.validate(); err == nil {
			t.Fatalf("case %d: invalid options accepted", i)
		}
	}
	good := DefaultOptions()
	if err := good.validate(); err != nil {
		t.Fatalf("default options rejected: %v", err)
	}
}

func TestPhaseROI(t *testing.T) {
	_, tr := trainToy(t)
	rois, err := tr.PhaseROI(apps.DefaultParams(toyApp{}))
	if err != nil {
		t.Fatal(err)
	}
	if len(rois) != 4 {
		t.Fatalf("rois = %v", rois)
	}
	// Later phases give the same speedup for much less damage → higher ROI.
	if rois[3] <= rois[0] {
		t.Fatalf("late-phase ROI %.3f should beat early %.3f", rois[3], rois[0])
	}
}

func TestWorkSaved(t *testing.T) {
	if got := WorkSaved(1.25); math.Abs(got-20) > 1e-9 {
		t.Fatalf("WorkSaved(1.25) = %g, want 20", got)
	}
	if WorkSaved(0) != 0 {
		t.Fatal("WorkSaved(0) should be 0")
	}
	if WorkSaved(0.5) >= 0 {
		t.Fatal("slowdown should report negative saved work")
	}
}

func TestTrainSeedsDeterministic(t *testing.T) {
	runner := apps.NewRunner(toyApp{})
	opts := fastOptions()
	t1, err := Train(runner, opts)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := Train(apps.NewRunner(toyApp{}), opts)
	if err != nil {
		t.Fatal(err)
	}
	s1, _, _ := t1.PredictPhase(apps.DefaultParams(toyApp{}), 1, approx.Config{1, 1}, false)
	s2, _, _ := t2.PredictPhase(apps.DefaultParams(toyApp{}), 1, approx.Config{1, 1}, false)
	if s1 != s2 {
		t.Fatalf("training not deterministic: %.9f vs %.9f", s1, s2)
	}
}

// errApp fails on every run, to exercise error propagation.
type errApp struct{ toyApp }

func (errApp) Start(apps.Params) (apps.State, error) {
	return nil, fmt.Errorf("boom")
}

func TestTrainPropagatesRunErrors(t *testing.T) {
	if _, err := Train(apps.NewRunner(errApp{}), fastOptions()); err == nil {
		t.Fatal("want error from failing app")
	}
}

// twoPathApp is toyApp with input-dependent control flow: the "mode"
// parameter swaps the block order (and their damage weights), like
// vidpipe's filter-order input. It exercises the decision-tree path.
type twoPathApp struct{ toyApp }

func (twoPathApp) Params() []apps.ParamSpec {
	return []apps.ParamSpec{
		{Name: "size", Values: []float64{10, 20}, Default: 10},
		{Name: "mode", Values: []float64{0, 1}, Default: 0},
	}
}

func (a twoPathApp) Start(p apps.Params) (apps.State, error) {
	pv := p.Vector(a.Params())
	size, mode := pv[0], pv[1]
	sig := "alpha>beta"
	if mode >= 0.5 {
		sig = "beta>alpha"
	}
	return &toyState{sig: sig, iterate: func(rec *trace.Recorder, iter int, lv approx.Config) float64 {
		rec.Call("alpha", uint64((8-2*lv[0])*int(size)))
		rec.Call("beta", uint64((6-2*lv[1])*int(size)))
		rec.Overhead(uint64(14 * size))
		if mode < 0.5 {
			return toyPhaseWeight(iter) * (float64(lv[0]) + 1.5*float64(lv[1]))
		}
		return toyPhaseWeight(iter) * (2.5*float64(lv[0]) + 0.5*float64(lv[1]))
	}}, nil
}

func TestControlFlowClassification(t *testing.T) {
	runner := apps.NewRunner(twoPathApp{})
	tr, err := Train(runner, fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	if tr.ControlFlow == nil {
		t.Fatal("no control-flow classifier for a two-path app")
	}
	// The tree should classify both modes correctly from the raw params.
	for _, mode := range []float64{0, 1} {
		p := apps.Params{"size": 10, "mode": mode}
		sig, err := tr.ControlFlow.Predict(p.Vector(tr.Specs))
		if err != nil {
			t.Fatal(err)
		}
		want := "alpha>beta"
		if mode == 1 {
			want = "beta>alpha"
		}
		if sig != want {
			t.Fatalf("mode %v classified as %q, want %q", mode, sig, want)
		}
	}
	// Per-class models must reflect the different damage profiles: in
	// mode 0 block beta is the damaging one, in mode 1 block alpha.
	p0 := apps.Params{"size": 10, "mode": 0}
	p1 := apps.Params{"size": 10, "mode": 1}
	_, degBeta0, err := tr.PredictPhase(p0, 0, approx.Config{0, 2}, false)
	if err != nil {
		t.Fatal(err)
	}
	_, degAlpha0, err := tr.PredictPhase(p0, 0, approx.Config{2, 0}, false)
	if err != nil {
		t.Fatal(err)
	}
	if degBeta0 <= degAlpha0 {
		t.Fatalf("mode 0: beta (%g) should out-damage alpha (%g)", degBeta0, degAlpha0)
	}
	_, degAlpha1, err := tr.PredictPhase(p1, 0, approx.Config{2, 0}, false)
	if err != nil {
		t.Fatal(err)
	}
	_, degBeta1, err := tr.PredictPhase(p1, 0, approx.Config{0, 2}, false)
	if err != nil {
		t.Fatal(err)
	}
	if degAlpha1 <= degBeta1 {
		t.Fatalf("mode 1: alpha (%g) should out-damage beta (%g)", degAlpha1, degBeta1)
	}
}
