package core

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"opprox/internal/approx"
	"opprox/internal/apps"
	"opprox/internal/apps/comd"
	"opprox/internal/apps/lulesh"
	"opprox/internal/apps/pso"
	"opprox/internal/apps/tracker"
	"opprox/internal/apps/vidpipe"
	"opprox/internal/obs"
)

// This file keeps the optimizer's full-space menu builders as reference
// implementations: buildPhaseMenu scores every configuration through the
// scalar predictor, twice, and optimizeFullSpace runs the batched
// predictor over the whole space. Optimize builds its ladders over the
// Pareto-front library's survivors only; the tests here and in
// library_test.go pin it to the references.

// buildPhaseMenu enumerates the phase's configuration space once under
// the trained models, scoring each configuration through predictConfig:
// the expected speedup and the conservative degradation.
func (t *Trained) buildPhaseMenu(pm *PhaseModel, paramVec []float64) phaseMenu {
	type entry struct {
		cfg approx.Config
		spd float64
		deg float64
	}
	var all []entry
	scanned := int64(0)
	approx.EnumerateConfigs(t.Blocks, func(cfg approx.Config) bool {
		if cfg.IsAccurate() {
			return true
		}
		scanned++
		spd, _ := pm.predictConfig(t, paramVec, cfg, false)
		_, deg := pm.predictConfig(t, paramVec, cfg, t.Opts.UseConfidence)
		all = append(all, entry{cfg: cfg.Clone(), spd: spd, deg: deg})
		return true
	})
	obs.Add("core.optimize.configs_scanned", scanned)
	sort.SliceStable(all, func(a, b int) bool { return all[a].deg < all[b].deg })
	m := phaseMenu{accurate: make(approx.Config, len(t.Blocks))}
	bestSpd := 1.0 // the accurate configuration is always feasible
	for _, e := range all {
		if e.spd > bestSpd {
			m.ladder = append(m.ladder, phaseChoice{cfg: e.cfg, spd: e.spd, deg: e.deg})
			bestSpd = e.spd
		}
	}
	return m
}

// optimizeScalar is Optimize with every menu built by buildPhaseMenu.
func (t *Trained) optimizeScalar(p apps.Params, budget float64) (approx.Schedule, Prediction, error) {
	pv := p.Vector(t.Specs)
	cm, err := t.classFor(pv)
	if err != nil {
		return approx.Schedule{}, Prediction{}, err
	}
	menus := make([]phaseMenu, t.Phases)
	for ph := range menus {
		menus[ph] = t.buildPhaseMenu(cm.Phase[ph], pv)
	}
	sched, pred := t.planMenus(cm, menus, budget)
	return sched, pred, nil
}

// oracleOptions is the reduced training the end-to-end benchmark runs
// in its set-up: four phases, seed 1, cut-down sampling.
func oracleOptions() Options {
	o := DefaultOptions()
	o.Phases = 4
	o.Seed = 1
	o.JointSamplesPerPhase = 8
	o.MaxParamCombos = 4
	o.Folds = 5
	return o
}

// heldOutParams draws every parameter uniformly between its smallest and
// largest representative value, whole where all representative values
// are whole, two decimals otherwise — the distribution cold dispatches
// arrive from.
func heldOutParams(rng *rand.Rand, a apps.App) apps.Params {
	p := apps.Params{}
	for _, s := range a.Params() {
		lo, hi, whole := s.Values[0], s.Values[0], true
		for _, v := range s.Values {
			lo, hi = math.Min(lo, v), math.Max(hi, v)
			whole = whole && v == math.Trunc(v)
		}
		v := lo + rng.Float64()*(hi-lo)
		if whole {
			v = math.Round(v)
		} else {
			v = math.Round(v*100) / 100
		}
		p[s.Name] = v
	}
	return p
}

// predictionBits flattens a Prediction to the bit patterns of its
// floats and its levels, so a comparison is bitwise (NaN and signed
// zeros included), not ==.
func predictionBits(pred Prediction) []uint64 {
	out := []uint64{math.Float64bits(pred.Speedup), math.Float64bits(pred.Degradation), uint64(len(pred.PerPhase))}
	for _, pl := range pred.PerPhase {
		out = append(out, uint64(pl.Phase), math.Float64bits(pl.Budget),
			math.Float64bits(pl.Speedup), math.Float64bits(pl.Degradation), uint64(len(pl.Levels)))
		for _, l := range pl.Levels {
			out = append(out, uint64(l))
		}
	}
	return out
}

// diagBits is predictionBits for a PhaseDiag.
func diagBits(d PhaseDiag) []uint64 {
	var out []uint64
	for _, v := range []float64{d.SpeedupRaw, d.DegRaw,
		d.SpeedupBand.HalfWidth, d.SpeedupBand.P, d.DegBand.HalfWidth, d.DegBand.P} {
		out = append(out, math.Float64bits(v))
	}
	return out
}

// frontConfigs is how many configurations Optimize scores at p: the
// survivors of every phase front of p's control-flow class.
func frontConfigs(t *testing.T, tr *Trained, p apps.Params) int64 {
	t.Helper()
	cm, err := tr.classFor(p.Vector(tr.Specs))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, f := range tr.library.classes[cm.CtxSig] {
		n += f.size()
	}
	return int64(n)
}

// TestOptimizeMatchesScalarOracle pins Optimize's library menus to the
// scalar full-space reference on the five real applications, at
// held-out (params, budget) pairs: schedules, predictions and the served
// phases' diagnoses must agree bitwise, and configs_scanned must count
// the class's front survivors.
func TestOptimizeMatchesScalarOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("trains five applications; skipped with -short")
	}
	const pairs = 100
	scanned := obs.Default.Counter("core.optimize.configs_scanned")
	for _, app := range []apps.App{comd.New(), lulesh.New(), pso.New(), tracker.New(), vidpipe.New()} {
		t.Run(app.Name(), func(t *testing.T) {
			tr, err := Train(apps.NewRunner(app), oracleOptions())
			if err != nil {
				t.Fatal(err)
			}
			trained := map[string]bool{}
			for _, r := range tr.Records {
				trained[fmt.Sprint(r.ParamVec)] = true
			}
			rng := rand.New(rand.NewSource(1))
			for n := 0; n < pairs; {
				p := heldOutParams(rng, app)
				budget := math.Round(rng.Float64()*3000) / 100 // [0, 30]
				if trained[fmt.Sprint(p.Vector(tr.Specs))] {
					continue
				}
				n++
				before := scanned.Value()
				sched, pred, err := tr.Optimize(p, budget)
				if err != nil {
					t.Fatal(err)
				}
				mid := scanned.Value()
				wantSched, wantPred, err := tr.optimizeScalar(p, budget)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(sched, wantSched) {
					t.Fatalf("params %v budget %g: schedule %v, oracle %v", p, budget, sched.Levels, wantSched.Levels)
				}
				if !reflect.DeepEqual(predictionBits(pred), predictionBits(wantPred)) {
					t.Fatalf("params %v budget %g: prediction %+v, oracle %+v", p, budget, pred, wantPred)
				}
				if front := frontConfigs(t, tr, p); mid-before != front {
					t.Fatalf("params %v budget %g: scanned %d configurations, front holds %d", p, budget, mid-before, front)
				}
				for ph := range sched.Levels {
					got, err := tr.DiagnosePhase(p, ph, sched.Levels[ph])
					if err != nil {
						t.Fatal(err)
					}
					want, err := tr.DiagnosePhase(p, ph, wantSched.Levels[ph])
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(diagBits(got), diagBits(want)) {
						t.Fatalf("params %v budget %g phase %d: diagnosis %+v, oracle %+v", p, budget, ph, got, want)
					}
				}
			}
		})
	}
}

// optimizeFullSpace is Optimize with every ladder built by the batched
// predictor over the whole non-accurate space — the pre-library default
// path. checkBatchMatchesScalar pins it to the scalar oracle; it is
// fast enough for sweeps of thousands of pairs.
func (t *Trained) optimizeFullSpace(p apps.Params, budget float64) (approx.Schedule, Prediction, error) {
	pv := p.Vector(t.Specs)
	cm, err := t.classFor(pv)
	if err != nil {
		return approx.Schedule{}, Prediction{}, err
	}
	space := enumerateSpace(t.Blocks)
	menus := make([]phaseMenu, t.Phases)
	for ph := range menus {
		if menus[ph], err = t.buildPhaseFront(cm.Phase[ph], space, pv); err != nil {
			return approx.Schedule{}, Prediction{}, err
		}
	}
	sched, pred := t.planMenus(cm, menus, budget)
	return sched, pred, nil
}

// oracleModels caches each application's model at oracleOptions as
// saved bytes; loadOracleModel hands every caller a private copy.
var oracleModels struct {
	sync.Mutex
	raw map[string][]byte
}

func loadOracleModel(t testing.TB, app apps.App) *Trained {
	t.Helper()
	oracleModels.Lock()
	raw, ok := oracleModels.raw[app.Name()]
	if !ok {
		tr, err := Train(apps.NewRunner(app), oracleOptions())
		if err != nil {
			oracleModels.Unlock()
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := tr.Save(&buf); err != nil {
			oracleModels.Unlock()
			t.Fatal(err)
		}
		raw = buf.Bytes()
		if oracleModels.raw == nil {
			oracleModels.raw = map[string][]byte{}
		}
		oracleModels.raw[app.Name()] = raw
	}
	oracleModels.Unlock()
	tr, err := LoadTrained(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// reload round-trips a model through Save and LoadTrained, as a shadow
// version travels from the lifecycle manager to every server.
func reload(t *testing.T, tr *Trained) *Trained {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.Save(&buf); err != nil {
		t.Fatal(err)
	}
	out, err := LoadTrained(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// assertMatchesScalar compares Optimize with the scalar oracle bitwise
// at every anchor (budget drawn per anchor) and at held-out pairs.
func assertMatchesScalar(t *testing.T, tr *Trained, app apps.App, heldOut int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var params []apps.Params
	for _, pv := range tr.libraryParamVecs() {
		p := apps.Params{}
		for i, s := range tr.Specs {
			p[s.Name] = pv[i]
		}
		params = append(params, p)
	}
	for k := 0; k < heldOut; k++ {
		params = append(params, heldOutParams(rng, app))
	}
	for _, p := range params {
		budget := math.Round(rng.Float64()*3000) / 100
		sched, pred, err := tr.Optimize(p, budget)
		if err != nil {
			t.Fatal(err)
		}
		wantSched, wantPred, err := tr.optimizeScalar(p, budget)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(sched, wantSched) {
			t.Fatalf("params %v budget %g: schedule %v, oracle %v", p, budget, sched.Levels, wantSched.Levels)
		}
		if !reflect.DeepEqual(predictionBits(pred), predictionBits(wantPred)) {
			t.Fatalf("params %v budget %g: prediction %+v, oracle %+v", p, budget, pred, wantPred)
		}
	}
}

// TestOptimizeMatchesScalarOracleAfterRecalibration keeps the library
// exact through the two ways a served model changes after training: a
// recalibrated shadow (the lifecycle's CreateShadow: clone, fold seeded
// shifts into the calibration, save, load) and a RetrainGlobal refit
// from drifted feedback. Both the anchors and held-out pairs must still
// match the scalar oracle bitwise. comd and tracker are the apps whose
// plans a sparser anchor set gets wrong; vidpipe routes three
// control-flow classes.
func TestOptimizeMatchesScalarOracleAfterRecalibration(t *testing.T) {
	if testing.Short() {
		t.Skip("trains three applications; skipped with -short")
	}
	for _, app := range []apps.App{comd.New(), tracker.New(), vidpipe.New()} {
		t.Run(app.Name(), func(t *testing.T) {
			t.Parallel()
			tr := loadOracleModel(t, app)
			rng := rand.New(rand.NewSource(3))
			spd, deg := make([]float64, tr.Phases), make([]float64, tr.Phases)
			for ph := range spd {
				spd[ph], deg[ph] = 0.6*rng.Float64()-0.3, 0.6*rng.Float64()-0.3
			}
			if err := tr.SetCalibration(spd, deg); err != nil {
				t.Fatal(err)
			}
			shadow := reload(t, tr)
			assertMatchesScalar(t, shadow, app, 20, 5)

			var samples []FeedbackSample
			space := enumerateSpace(shadow.Blocks)
			for k := 0; k < 6; k++ {
				p := heldOutParams(rng, app)
				for ph := 0; ph < shadow.Phases; ph++ {
					for j := k; j < len(space); j += len(space)/12 + 1 {
						diag, err := shadow.DiagnosePhase(p, ph, space[j])
						if err != nil {
							t.Fatal(err)
						}
						samples = append(samples, FeedbackSample{
							Params: p, Levels: append([]int(nil), space[j]...), Phase: ph,
							Speedup:     SpeedupFromScale(diag.SpeedupRaw + 0.2),
							Degradation: DegradationFromScale(diag.DegRaw + 0.1),
						})
					}
				}
			}
			if _, err := shadow.RetrainGlobal(samples, nil, 4, 7); err != nil {
				t.Fatal(err)
			}
			assertMatchesScalar(t, reload(t, shadow), app, 20, 6)
		})
	}
}

// TestHeldOutGapSweep publishes how far the library's plans sit from
// the full-space oracle away from the anchors, on a seed that played no
// part in choosing the anchor count: 500 held-out (params, budget)
// pairs per application. Predicted degradation must fit the budget on
// every plan; each plan that differs from the oracle's is run on the
// application, next to the oracle's, and its realized degradation is
// reported against the budget.
func TestHeldOutGapSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("trains five applications and runs 2500 plan pairs; skipped with -short")
	}
	const pairs, seed = 500, 11
	for _, app := range []apps.App{comd.New(), lulesh.New(), pso.New(), tracker.New(), vidpipe.New()} {
		t.Run(app.Name(), func(t *testing.T) {
			t.Parallel()
			tr := loadOracleModel(t, app)
			runner := apps.NewRunner(app)
			rng := rand.New(rand.NewSource(seed))
			differ, worstLoss := 0, 0.0
			for n := 0; n < pairs; n++ {
				p := heldOutParams(rng, app)
				budget := math.Round(rng.Float64()*3000) / 100
				sched, pred, err := tr.Optimize(p, budget)
				if err != nil {
					t.Fatal(err)
				}
				if pred.Degradation > budget {
					t.Fatalf("params %v budget %g: predicted degradation %g over budget", p, budget, pred.Degradation)
				}
				wantSched, wantPred, err := tr.optimizeFullSpace(p, budget)
				if err != nil {
					t.Fatal(err)
				}
				if reflect.DeepEqual(sched, wantSched) && reflect.DeepEqual(predictionBits(pred), predictionBits(wantPred)) {
					continue
				}
				differ++
				loss := (wantPred.Speedup - pred.Speedup) / wantPred.Speedup
				worstLoss = max(worstLoss, loss)
				got, err := runner.Evaluate(p, sched)
				if err != nil {
					t.Fatal(err)
				}
				want, err := runner.Evaluate(p, wantSched)
				if err != nil {
					t.Fatal(err)
				}
				t.Logf("params %v budget %g: predicted speedup %.4f vs oracle %.4f (loss %.2f%%); realized degradation %.3f vs oracle %.3f",
					p, budget, pred.Speedup, wantPred.Speedup, 100*loss, got.Degradation, want.Degradation)
			}
			t.Logf("%s: %d of %d plans differ from the full-space oracle; worst predicted-speedup loss %.2f%%",
				app.Name(), differ, pairs, 100*worstLoss)
		})
	}
}
