package core

import (
	"testing"

	"opprox/internal/approx"
	"opprox/internal/apps"
	"opprox/internal/qos"
	"opprox/internal/trace"
)

// benchApp sizes the optimizer benchmarks: three blocks at five levels
// each give 215 non-accurate configurations, and approximating gamma
// costs work instead of saving it (a memoization whose bookkeeping
// outweighs the reuse), so every configuration with gamma > 0 is
// dominated by its gamma = 0 counterpart — the shape the Pareto-front
// library prunes.
type benchApp struct{}

func (benchApp) Name() string { return "bench" }

func (benchApp) Blocks() []approx.Block {
	return []approx.Block{
		{Name: "alpha", Technique: approx.Perforation, MaxLevel: 5},
		{Name: "beta", Technique: approx.Memoization, MaxLevel: 5},
		{Name: "gamma", Technique: approx.Memoization, MaxLevel: 5},
	}
}

func (benchApp) Params() []apps.ParamSpec {
	return []apps.ParamSpec{
		{Name: "size", Values: []float64{10, 20}, Default: 10},
	}
}

func (a benchApp) Run(p apps.Params, sched approx.Schedule, baselineIters int) (apps.Result, error) {
	if err := sched.Validate(a.Blocks()); err != nil {
		return apps.Result{}, err
	}
	size := p.Vector(a.Params())[0]
	var rec trace.Recorder
	damage := 0.0
	for iter := 0; iter < toyIters; iter++ {
		rec.BeginIteration()
		ph := approx.PhaseOf(iter, baselineIters, sched.Phases)
		lv := sched.LevelsAt(ph)
		rec.Call("alpha", uint64((12-2*lv[0])*int(size)))
		rec.Call("beta", uint64((10-lv[1])*int(size)))
		rec.Call("gamma", uint64((8+2*lv[2])*int(size)))
		rec.Overhead(uint64(10 * size))
		damage += toyPhaseWeight(iter) * (0.4*float64(lv[0]) + 0.6*float64(lv[1]) + 1.0*float64(lv[2]))
	}
	return apps.Result{
		Output:     []float64{100 + damage, 50},
		Work:       rec.TotalWork(),
		OuterIters: rec.Iterations(),
		CtxSig:     "alpha>beta>gamma",
	}, nil
}

func (benchApp) QoS(exact, approximate []float64) (float64, error) {
	return qos.Distortion(exact, approximate)
}

var _ apps.App = benchApp{}

func benchOptions() Options {
	o := DefaultOptions()
	o.Phases = 2
	o.JointSamplesPerPhase = 10
	o.Folds = 5
	o.MaxPolyDegree = 3
	return o
}

func trainBench(tb testing.TB) *Trained {
	tb.Helper()
	tr, err := Train(apps.NewRunner(benchApp{}), benchOptions())
	if err != nil {
		tb.Fatal(err)
	}
	return tr
}

func BenchmarkTrainToy(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Train(apps.NewRunner(toyApp{}), fastOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOptimizeToy(b *testing.B) {
	tr, err := Train(apps.NewRunner(toyApp{}), fastOptions())
	if err != nil {
		b.Fatal(err)
	}
	p := apps.DefaultParams(toyApp{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := tr.Optimize(p, 10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOptimizeColdMenu is the cold dispatch without the library:
// every phase menu scores all 215 configurations of the once-enumerated
// space in one batched predict pass.
func BenchmarkOptimizeColdMenu(b *testing.B) {
	tr := trainBench(b)
	p := apps.DefaultParams(benchApp{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := tr.Optimize(p, 10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOptimizeColdLibrary is the same cold dispatch with the
// Pareto-front library warm: menus are built over the pruned survivors
// in one batched predict pass per phase.
func BenchmarkOptimizeColdLibrary(b *testing.B) {
	tr := trainBench(b)
	if err := tr.EnableFrontLibrary(); err != nil {
		b.Fatal(err)
	}
	p := apps.DefaultParams(benchApp{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := tr.Optimize(p, 10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFrontBuild prices tier 1: the once-per-model-version batched
// evaluation and dominance pruning of the whole configuration space.
func BenchmarkFrontBuild(b *testing.B) {
	tr := trainBench(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tr.BuildFrontLibrary(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPredictPhase(b *testing.B) {
	tr, err := Train(apps.NewRunner(toyApp{}), fastOptions())
	if err != nil {
		b.Fatal(err)
	}
	p := apps.DefaultParams(toyApp{})
	cfg := toyApp{}.Blocks()
	_ = cfg
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := tr.PredictPhase(p, i%4, []int{2, 1}, true); err != nil {
			b.Fatal(err)
		}
	}
}
