package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
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

// This file keeps the optimizer's original menu builder as a reference
// implementation: every configuration is scored through the scalar
// predictor, twice. Optimize builds the same ladders with the batched
// predictor (buildPhaseFront over the full space); the tests here and in
// library_test.go pin the two bitwise-equal.

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

// TestOptimizeMatchesScalarOracle pins Optimize's batched menus to the
// scalar reference on the five real applications, at held-out
// (params, budget) pairs: schedules, predictions, the served phases'
// diagnoses and the configs_scanned counter must all agree bitwise.
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
				after := scanned.Value()
				if !reflect.DeepEqual(sched, wantSched) {
					t.Fatalf("params %v budget %g: schedule %v, oracle %v", p, budget, sched.Levels, wantSched.Levels)
				}
				if !reflect.DeepEqual(predictionBits(pred), predictionBits(wantPred)) {
					t.Fatalf("params %v budget %g: prediction %+v, oracle %+v", p, budget, pred, wantPred)
				}
				if mid-before != after-mid {
					t.Fatalf("params %v budget %g: scanned %d configurations, oracle %d", p, budget, mid-before, after-mid)
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
