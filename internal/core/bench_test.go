package core

import (
	"math"
	"math/rand"
	"testing"

	"opprox/internal/approx"
	"opprox/internal/apps"
	"opprox/internal/apps/comd"
	"opprox/internal/apps/lulesh"
	"opprox/internal/apps/pso"
	"opprox/internal/apps/tracker"
	"opprox/internal/apps/vidpipe"
	"opprox/internal/qos"
	"opprox/internal/trace"
)

// benchApp is a small space with dominated configurations: three blocks
// at five levels each give 215 non-accurate configurations, and
// approximating gamma costs work instead of saving it (a memoization
// whose bookkeeping outweighs the reuse), so every configuration with
// gamma > 0 is dominated by its gamma = 0 counterpart — the shape the
// Pareto-front library prunes.
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

// realApps returns fresh instances of the five benchmark applications.
func realApps() []apps.App {
	return []apps.App{comd.New(), lulesh.New(), pso.New(), tracker.New(), vidpipe.New()}
}

// BenchmarkOptimizeCold is the cold dispatch on the five applications
// at the end-to-end benchmark's reduced training (trained once per
// process, see loadOracleModel): each iteration plans
// the next of 64 held-out (params, budget) pairs, drawn like
// TestOptimizeMatchesScalarOracle's, so no two consecutive calls share
// an input.
func BenchmarkOptimizeCold(b *testing.B) {
	for _, app := range realApps() {
		b.Run(app.Name(), func(b *testing.B) {
			tr := loadOracleModel(b, app)
			rng := rand.New(rand.NewSource(1))
			params := make([]apps.Params, 64)
			budgets := make([]float64, 64)
			for i := range params {
				params[i] = heldOutParams(rng, app)
				budgets[i] = math.Round(rng.Float64()*3000) / 100
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := tr.Optimize(params[i%64], budgets[i%64]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFrontBuild prices tier 1 on the five applications: the
// once-per-model-version batched evaluation of the whole configuration
// space at every anchor, and the dominance pruning.
func BenchmarkFrontBuild(b *testing.B) {
	for _, app := range realApps() {
		b.Run(app.Name(), func(b *testing.B) {
			tr := loadOracleModel(b, app)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := tr.buildFrontLibrary(); err != nil {
					b.Fatal(err)
				}
			}
		})
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
