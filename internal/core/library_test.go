package core

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"sync"
	"testing"

	"opprox/internal/approx"
	"opprox/internal/apps"
)

// planResult bundles one Optimize outcome for byte-level comparison
// between the menu path and the front-library path.
type planResult struct {
	sched approx.Schedule
	pred  Prediction
}

// optimizeGrid runs Optimize over every (size, budget) pair in order.
func optimizeGrid(t *testing.T, tr *Trained, params []apps.Params, budgets []float64) []planResult {
	t.Helper()
	var out []planResult
	for _, p := range params {
		for _, b := range budgets {
			sched, pred, err := tr.Optimize(p, b)
			if err != nil {
				t.Fatalf("Optimize(%v, %g): %v", p, b, err)
			}
			out = append(out, planResult{sched: sched, pred: pred})
		}
	}
	return out
}

var (
	libGridParams  = []apps.Params{{"size": 10}, {"size": 20}}
	libGridBudgets = []float64{0, 1, 2.5, 5, 10, 25, 60}
)

// TestFrontPlansMatchMenuPlans is the tentpole's headline property: with
// the library built from the training records, front-path plans are
// bitwise-identical to menu-path plans at the training parameter vectors
// for every budget — the dominance pruning never removes a ladder rung.
func TestFrontPlansMatchMenuPlans(t *testing.T) {
	_, tr := trainToy(t)
	menu := optimizeGrid(t, tr, libGridParams, libGridBudgets)
	if err := tr.EnableFrontLibrary(); err != nil {
		t.Fatal(err)
	}
	if !tr.frontOn || tr.library == nil {
		t.Fatal("EnableFrontLibrary did not switch the optimizer onto the library")
	}
	front := optimizeGrid(t, tr, libGridParams, libGridBudgets)
	for i := range menu {
		if !reflect.DeepEqual(menu[i].sched, front[i].sched) {
			t.Fatalf("plan %d: schedules diverge\nmenu:  %v\nfront: %v", i, menu[i].sched, front[i].sched)
		}
		if !reflect.DeepEqual(menu[i].pred, front[i].pred) {
			t.Fatalf("plan %d: predictions diverge\nmenu:  %+v\nfront: %+v", i, menu[i].pred, front[i].pred)
		}
	}
}

// TestFrontMenusMatchFullMenus pins the stronger per-phase claim behind
// the plan equality: at every sampled parameter vector, the ladder built
// over the survivors equals the ladder built over the full enumeration.
func TestFrontMenusMatchFullMenus(t *testing.T) {
	_, tr := trainToy(t)
	if err := tr.EnableFrontLibrary(); err != nil {
		t.Fatal(err)
	}
	for _, pv := range tr.libraryParamVecs() {
		cm, err := tr.classFor(pv)
		if err != nil {
			t.Fatal(err)
		}
		if tr.library.classes[cm.CtxSig] == nil {
			t.Fatalf("library does not cover class %q", cm.CtxSig)
		}
		menus, err := tr.phaseMenus(cm, pv)
		if err != nil {
			t.Fatal(err)
		}
		for ph, pm := range cm.Phase {
			full := tr.buildPhaseMenu(pm, pv)
			if !reflect.DeepEqual(full.ladder, menus[ph].ladder) {
				t.Fatalf("pv %v phase %d: front ladder %+v != full ladder %+v",
					pv, ph, menus[ph].ladder, full.ladder)
			}
		}
	}
}

// checkBatchMatchesScalar asserts predictConfigsBatch returns exactly
// (==, not approximately) what the scalar predictConfig path returns for
// every configuration, class, phase and parameter vector — over the
// whole space, and over one-configuration batches, which are smaller
// than any block's level table (a front can have fewer survivors than a
// block has levels).
func checkBatchMatchesScalar(t *testing.T, tr *Trained) {
	t.Helper()
	space := enumerateSpace(tr.Blocks)
	spd := make([]float64, len(space))
	deg := make([]float64, len(space))
	for _, sig := range tr.classSigs() {
		cm := tr.Classes[sig]
		for _, pv := range tr.libraryParamVecs() {
			for ph, pm := range cm.Phase {
				if err := pm.predictConfigsBatch(tr, pv, space, spd, deg); err != nil {
					t.Fatal(err)
				}
				for j, cfg := range space {
					sWant, _ := pm.predictConfig(tr, pv, cfg, false)
					_, dWant := pm.predictConfig(tr, pv, cfg, tr.Opts.UseConfidence)
					if spd[j] != sWant || deg[j] != dWant {
						t.Fatalf("class %q phase %d pv %v cfg %v: batch (%.17g, %.17g) != scalar (%.17g, %.17g)",
							sig, ph, pv, cfg, spd[j], deg[j], sWant, dWant)
					}
					if err := pm.predictConfigsBatch(tr, pv, space[j:j+1], spd[:1], deg[:1]); err != nil {
						t.Fatal(err)
					}
					if spd[0] != sWant || deg[0] != dWant {
						t.Fatalf("class %q phase %d pv %v cfg %v: single batch (%.17g, %.17g) != scalar (%.17g, %.17g)",
							sig, ph, pv, cfg, spd[0], deg[0], sWant, dWant)
					}
				}
			}
		}
	}
}

func TestPredictConfigsBatchMatchesScalar(t *testing.T) {
	_, tr := trainToy(t)
	checkBatchMatchesScalar(t, tr)
}

// TestPredictConfigsBatchSplitExpanded runs the batch-vs-scalar check on
// a model with split sub-models and the space-expanded basis. Training
// splits only global models (the local sweeps are too small to split),
// so every local model is also wrapped in a split — on the level column
// for speedup, on the first parameter for degradation — whose halves
// differ, so a row routed to the wrong half shows up as a mismatch.
func TestPredictConfigsBatchSplitExpanded(t *testing.T) {
	opts := benchOptions()
	opts.ExpandFeatures = true
	opts.TargetR2 = 0.9999
	opts.MaxPolyDegree = 1
	opts.JointSamplesPerPhase = 30
	tr, err := Train(apps.NewRunner(benchApp{}), opts)
	if err != nil {
		t.Fatal(err)
	}
	split, expanded := false, false
	np := len(tr.Specs)
	for _, sig := range tr.classSigs() {
		for _, pm := range tr.Classes[sig].Phase {
			for _, fm := range []*filteredModel{pm.globalSpeedup, pm.globalDeg, pm.iter} {
				split = split || fm.lo != nil
				expanded = expanded || anyExpanded(fm)
			}
			for b := range pm.localSpeedup {
				ls, ld := pm.localSpeedup[b], pm.localDeg[b]
				pm.localSpeedup[b] = &filteredModel{scale: ls.scale, splitFeat: np, splitVal: 2, lo: ls, hi: ld}
				pm.localDeg[b] = &filteredModel{scale: ld.scale, splitFeat: 0, splitVal: 15, lo: ld, hi: ls}
			}
		}
	}
	if !split || !expanded {
		t.Fatalf("trained model lacks a global split (%v) or an expanded model (%v)", split, expanded)
	}
	checkBatchMatchesScalar(t, tr)
}

// TestPredictConfigsBatchRejectsBadLevels pins the table bounds: a level
// outside its block's range, or a configuration of the wrong width, is
// an error rather than a read past the per-level table.
func TestPredictConfigsBatchRejectsBadLevels(t *testing.T) {
	tr := trainBench(t)
	pv := apps.DefaultParams(benchApp{}).Vector(tr.Specs)
	pm := tr.Classes[tr.classSigs()[0]].Phase[0]
	out := make([]float64, 1)
	for _, cfg := range []approx.Config{{6, 0, 0}, {0, -1, 0}, {1, 1}, {1, 1, 1, 1}} {
		if err := pm.predictConfigsBatch(tr, pv, []approx.Config{cfg}, out, out); err == nil {
			t.Errorf("configuration %v accepted", cfg)
		}
	}
}

// TestFrontLibraryInvariants checks the structural shape of the built
// library on the toy app. (The toy's config space is all-Pareto —
// speedup depends only on the total level sum while damage grows with
// every level — so pruning correctly removes nothing here; the filter
// itself is pinned by TestPruneDominated.)
func TestFrontLibraryInvariants(t *testing.T) {
	_, tr := trainToy(t)
	if err := tr.BuildFrontLibrary(); err != nil {
		t.Fatal(err)
	}
	space := len(enumerateSpace(tr.Blocks))
	for sig, cf := range tr.library.classes {
		if len(cf.phase) != tr.Phases {
			t.Fatalf("class %q: %d phase fronts for %d phases", sig, len(cf.phase), tr.Phases)
		}
		for ph, pf := range cf.phase {
			if len(pf.cfgs) == 0 || len(pf.cfgs) > space {
				t.Fatalf("class %q phase %d: %d survivors out of %d configs", sig, ph, len(pf.cfgs), space)
			}
			for k := 1; k < len(pf.idx); k++ {
				if pf.idx[k] <= pf.idx[k-1] {
					t.Fatalf("class %q phase %d: indices not strictly increasing: %v", sig, ph, pf.idx)
				}
			}
		}
	}
}

// TestFrontLibraryPrunesBenchApp checks tier 1 does real work on a space
// with dominated configurations: on benchApp every gamma > 0 setting is
// dominated, so well over half of the 215 configurations must be pruned
// — and the surviving front must still produce menu-identical plans.
func TestFrontLibraryPrunesBenchApp(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a 3-block model; skipped with -short")
	}
	tr := trainBench(t)
	params := []apps.Params{{"size": 10}, {"size": 20}}
	menu := optimizeGrid(t, tr, params, libGridBudgets)
	if err := tr.EnableFrontLibrary(); err != nil {
		t.Fatal(err)
	}
	space := len(enumerateSpace(tr.Blocks))
	for sig, cf := range tr.library.classes {
		for ph, pf := range cf.phase {
			if len(pf.cfgs) > space/2 {
				t.Fatalf("class %q phase %d: only %d of %d configs pruned",
					sig, ph, space-len(pf.cfgs), space)
			}
		}
	}
	front := optimizeGrid(t, tr, params, libGridBudgets)
	if !reflect.DeepEqual(menu, front) {
		t.Fatal("front-path plans diverge from menu-path plans on benchApp")
	}
}

// TestPruneDominated pins the dominance filter on controlled prediction
// matrices: dominated configurations are removed, equal-prediction ties
// keep the earlier enumeration index, disagreement across parameter
// vectors blocks pruning, and floor-bound configurations drop out.
func TestPruneDominated(t *testing.T) {
	space := []approx.Config{{1, 0}, {0, 1}, {2, 0}, {0, 2}, {3, 0}}
	// Two sampled parameter vectors (rows), five configs (columns):
	//   cfg0 dominates cfg1 at both pvs (equal speedup, less degradation).
	//   cfg2 beats cfg3 at pv0 but not at pv1 -> cfg3 must survive.
	//   cfg4 never beats the accurate floor (speedup <= 1 everywhere).
	spd := []float64{
		1.5, 1.5, 2.0, 1.9, 1.0,
		1.4, 1.4, 1.8, 1.9, 0.9,
	}
	deg := []float64{
		1.0, 2.0, 3.0, 4.0, 0.5,
		1.0, 2.0, 3.0, 4.0, 0.5,
	}
	pf := pruneDominated(space, spd, deg, 2)
	if want := []int{0, 2, 3}; !reflect.DeepEqual(pf.idx, want) {
		t.Fatalf("survivors %v, want %v", pf.idx, want)
	}
	// With only pv0 sampled, cfg3 is dominated by cfg2 too.
	pf = pruneDominated(space, spd[:5], deg[:5], 1)
	if want := []int{0, 2}; !reflect.DeepEqual(pf.idx, want) {
		t.Fatalf("single-pv survivors %v, want %v", pf.idx, want)
	}
}

// TestOptimizeBudgetMonotoneFront re-runs the budget monotonicity
// property on the front path.
func TestOptimizeBudgetMonotoneFront(t *testing.T) {
	runner, tr := trainToy(t)
	if err := tr.EnableFrontLibrary(); err != nil {
		t.Fatal(err)
	}
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

// TestLibraryPersistRoundTrip trains with the library on, saves, reloads,
// and requires the loaded model to serve identical front-path plans with
// an identical survivor set — no records travel with the file, so this
// also pins the ParamCombos reproduction path.
func TestLibraryPersistRoundTrip(t *testing.T) {
	opts := fastOptions()
	opts.FrontLibrary = true
	tr, err := Train(apps.NewRunner(toyApp{}), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.frontOn || tr.library == nil {
		t.Fatal("Options.FrontLibrary did not build the library at train time")
	}
	var buf bytes.Buffer
	if err := tr.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadTrained(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !loaded.frontOn || loaded.library == nil {
		t.Fatal("loading a model with a persisted library must re-arm the front path")
	}
	for sig, cf := range tr.library.classes {
		lcf := loaded.library.classes[sig]
		if lcf == nil {
			t.Fatalf("class %q missing from loaded library", sig)
		}
		for ph := range cf.phase {
			if !reflect.DeepEqual(cf.phase[ph].idx, lcf.phase[ph].idx) {
				t.Fatalf("class %q phase %d: survivors %v != loaded %v",
					sig, ph, cf.phase[ph].idx, lcf.phase[ph].idx)
			}
			if !reflect.DeepEqual(cf.phase[ph].cfgs, lcf.phase[ph].cfgs) {
				t.Fatalf("class %q phase %d: configs diverge after reload", sig, ph)
			}
		}
	}
	want := optimizeGrid(t, tr, libGridParams, libGridBudgets)
	got := optimizeGrid(t, loaded, libGridParams, libGridBudgets)
	if !reflect.DeepEqual(want, got) {
		t.Fatal("front-path plans diverge across a save/load round trip")
	}
}

// TestImportLibraryRejectsCorrupt exercises the structural validation on
// the persisted survivor sets: a corrupt library must fail the load, not
// produce a silently wrong fast path.
func TestImportLibraryRejectsCorrupt(t *testing.T) {
	opts := fastOptions()
	opts.FrontLibrary = true
	tr, err := Train(apps.NewRunner(toyApp{}), opts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.Save(&buf); err != nil {
		t.Fatal(err)
	}
	sig := tr.classSigs()[0]
	nspace := len(enumerateSpace(tr.Blocks))

	cases := []struct {
		name   string
		mutate func(classes map[string]any)
	}{
		{"non-increasing indices", func(classes map[string]any) {
			classes[sig].([]any)[0] = []any{1.0, 1.0}
		}},
		{"index out of range", func(classes map[string]any) {
			classes[sig].([]any)[0] = []any{float64(nspace)}
		}},
		{"negative index", func(classes map[string]any) {
			classes[sig].([]any)[0] = []any{-1.0}
		}},
		{"unknown class", func(classes map[string]any) {
			classes["no>such>class"] = classes[sig]
		}},
		{"wrong phase count", func(classes map[string]any) {
			classes[sig] = classes[sig].([]any)[:1]
		}},
		{"missing class", func(classes map[string]any) {
			delete(classes, sig)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var mf map[string]any
			if err := json.Unmarshal(buf.Bytes(), &mf); err != nil {
				t.Fatal(err)
			}
			lib, ok := mf["front_library"].(map[string]any)
			if !ok {
				t.Fatal("saved model has no front_library field")
			}
			tc.mutate(lib["classes"].(map[string]any))
			raw, err := json.Marshal(mf)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := LoadTrained(bytes.NewReader(raw)); err == nil {
				t.Fatal("corrupt library accepted")
			}
		})
	}
}

// TestLibraryParamVecsDedupeAndCap checks the pruning anchor set: sorted,
// deduplicated, and capped with the first and last vectors always kept.
func TestLibraryParamVecsDedupeAndCap(t *testing.T) {
	var recs []Record
	for i := 40; i >= 0; i-- {
		pv := []float64{float64(i % 21), float64(i % 3)}
		recs = append(recs, Record{ParamVec: pv}, Record{ParamVec: pv})
	}
	tr := &Trained{Records: recs}
	got := tr.libraryParamVecs()
	if len(got) > maxLibraryPVs {
		t.Fatalf("%d vectors exceed the %d cap", len(got), maxLibraryPVs)
	}
	for i := 1; i < len(got); i++ {
		if !lexLess(got[i-1], got[i]) {
			t.Fatalf("vectors not strictly increasing at %d: %v then %v", i, got[i-1], got[i])
		}
	}
	if got[0][0] != 0 || got[len(got)-1][0] != 20 {
		t.Fatalf("extremes not kept: first %v last %v", got[0], got[len(got)-1])
	}
}

// TestFrontLibraryMultiClass builds the library on the two-class
// control-flow app and requires per-class coverage plus plan equality on
// both paths through the program.
func TestFrontLibraryMultiClass(t *testing.T) {
	tr, err := Train(apps.NewRunner(twoPathApp{}), fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	params := []apps.Params{
		{"size": 10, "mode": 0},
		{"size": 10, "mode": 1},
		{"size": 20, "mode": 0},
		{"size": 20, "mode": 1},
	}
	menu := optimizeGrid(t, tr, params, libGridBudgets)
	if err := tr.EnableFrontLibrary(); err != nil {
		t.Fatal(err)
	}
	if len(tr.library.classes) != len(tr.Classes) {
		t.Fatalf("library covers %d of %d classes", len(tr.library.classes), len(tr.Classes))
	}
	front := optimizeGrid(t, tr, params, libGridBudgets)
	if !reflect.DeepEqual(menu, front) {
		t.Fatal("front-path plans diverge from menu-path plans on the two-class app")
	}
	checkBatchMatchesScalar(t, tr)
}

// TestExpandFeaturesTraining turns on the space-expanded feature set and
// checks training still converges, at least one fitted model actually
// uses the widened basis, the batch path stays bit-exact, and the
// expansion survives a save/load round trip (front path included).
func TestExpandFeaturesTraining(t *testing.T) {
	opts := fastOptions()
	opts.ExpandFeatures = true
	opts.FrontLibrary = true
	tr, err := Train(apps.NewRunner(toyApp{}), opts)
	if err != nil {
		t.Fatal(err)
	}
	expanded := false
	for _, sig := range tr.classSigs() {
		for _, pm := range tr.Classes[sig].Phase {
			for _, fm := range []*filteredModel{pm.globalSpeedup, pm.globalDeg, pm.iter} {
				if anyExpanded(fm) {
					expanded = true
				}
			}
			for b := range pm.localSpeedup {
				if anyExpanded(pm.localSpeedup[b]) || anyExpanded(pm.localDeg[b]) {
					expanded = true
				}
			}
		}
	}
	if !expanded {
		t.Fatal("ExpandFeatures trained no model on the widened basis")
	}
	sR2, dR2 := tr.ModelQuality()
	if sR2 < 0.8 || dR2 < 0.8 {
		t.Fatalf("expanded toy models degraded: speedup R²=%.3f deg R²=%.3f", sR2, dR2)
	}
	checkBatchMatchesScalar(t, tr)

	var buf bytes.Buffer
	if err := tr.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadTrained(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	want := optimizeGrid(t, tr, libGridParams, libGridBudgets)
	got := optimizeGrid(t, loaded, libGridParams, libGridBudgets)
	if !reflect.DeepEqual(want, got) {
		t.Fatal("expanded-model plans diverge across a save/load round trip")
	}
}

// anyExpanded reports whether the model or any split child fits on the
// space-expanded basis.
func anyExpanded(fm *filteredModel) bool {
	if fm == nil {
		return false
	}
	if fm.expandN > 0 {
		return true
	}
	return anyExpanded(fm.lo) || anyExpanded(fm.hi)
}

// fuzzMenus trains the toy model once per fuzz process and caches both
// menu sets at the default parameter vector.
var fuzzMenus struct {
	once  sync.Once
	err   error
	front []phaseMenu
	full  []phaseMenu
}

func initFuzzMenus() {
	tr, err := Train(apps.NewRunner(toyApp{}), fastOptions())
	if err != nil {
		fuzzMenus.err = err
		return
	}
	if err := tr.EnableFrontLibrary(); err != nil {
		fuzzMenus.err = err
		return
	}
	pv := apps.DefaultParams(toyApp{}).Vector(tr.Specs)
	cm, err := tr.classFor(pv)
	if err != nil {
		fuzzMenus.err = err
		return
	}
	fuzzMenus.front, fuzzMenus.err = tr.phaseMenus(cm, pv)
	if fuzzMenus.err != nil {
		return
	}
	fuzzMenus.full = make([]phaseMenu, len(cm.Phase))
	for ph, pm := range cm.Phase {
		fuzzMenus.full[ph] = tr.buildPhaseMenu(pm, pv)
	}
}

// FuzzFrontQueryMatchesLadder asserts the front-library ladder answers
// every budget query exactly like the full-enumeration ladder.
func FuzzFrontQueryMatchesLadder(f *testing.F) {
	for _, b := range []float64{0, 1e-9, 0.5, 1, 3, 7.5, 25, 1e6, -1, math.Inf(1)} {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, budget float64) {
		if math.IsNaN(budget) {
			t.Skip("NaN budgets trivially return the accurate floor on both paths")
		}
		fuzzMenus.once.Do(initFuzzMenus)
		if fuzzMenus.err != nil {
			t.Fatal(fuzzMenus.err)
		}
		for ph := range fuzzMenus.full {
			got := fuzzMenus.front[ph].query(budget)
			want := fuzzMenus.full[ph].query(budget)
			if got.spd != want.spd || got.deg != want.deg || !reflect.DeepEqual(got.cfg, want.cfg) {
				t.Fatalf("phase %d budget %g: front %+v != ladder %+v", ph, budget, got, want)
			}
		}
	})
}
