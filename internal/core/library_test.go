package core

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"

	"opprox/internal/approx"
	"opprox/internal/apps"
	"opprox/internal/apps/comd"
	"opprox/internal/obs"
)

// planResult bundles one plan for comparison between the library path
// and the full-space oracle.
type planResult struct {
	sched approx.Schedule
	pred  Prediction
}

// optimizeGrid runs Optimize over every (params, budget) pair in order.
func optimizeGrid(t *testing.T, tr *Trained, params []apps.Params, budgets []float64) []planResult {
	t.Helper()
	return planGrid(t, tr.Optimize, params, budgets)
}

// scalarGrid is optimizeGrid on the full-space scalar oracle.
func scalarGrid(t *testing.T, tr *Trained, params []apps.Params, budgets []float64) []planResult {
	t.Helper()
	return planGrid(t, tr.optimizeScalar, params, budgets)
}

func planGrid(t *testing.T, optimize func(apps.Params, float64) (approx.Schedule, Prediction, error),
	params []apps.Params, budgets []float64) []planResult {
	t.Helper()
	var out []planResult
	for _, p := range params {
		for _, b := range budgets {
			sched, pred, err := optimize(p, b)
			if err != nil {
				t.Fatalf("optimize(%v, %g): %v", p, b, err)
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

// TestFrontPlansMatchMenuPlans is the library's headline property: at
// the anchor parameter vectors, library plans are bitwise-identical to
// the full-space scalar oracle's for every budget — the dominance
// pruning never removes a ladder rung.
func TestFrontPlansMatchMenuPlans(t *testing.T) {
	_, tr := trainToy(t)
	if tr.library == nil {
		t.Fatal("Train did not build the front library")
	}
	menu := scalarGrid(t, tr, libGridParams, libGridBudgets)
	front := optimizeGrid(t, tr, libGridParams, libGridBudgets)
	for i := range menu {
		if !reflect.DeepEqual(menu[i].sched, front[i].sched) {
			t.Fatalf("plan %d: schedules diverge\nmenu:  %v\nfront: %v", i, menu[i].sched, front[i].sched)
		}
		if !reflect.DeepEqual(predictionBits(menu[i].pred), predictionBits(front[i].pred)) {
			t.Fatalf("plan %d: predictions diverge\nmenu:  %+v\nfront: %+v", i, menu[i].pred, front[i].pred)
		}
	}
}

// TestFrontMenusMatchFullMenus pins the stronger per-phase claim behind
// the plan equality: at every anchor, the ladder built over the
// survivors equals the scalar oracle's ladder over the full enumeration.
func TestFrontMenusMatchFullMenus(t *testing.T) {
	_, tr := trainToy(t)
	for _, pv := range tr.libraryParamVecs() {
		cm, err := tr.classFor(pv)
		if err != nil {
			t.Fatal(err)
		}
		if tr.library.classes[cm.CtxSig] == nil {
			t.Fatalf("library does not cover class %q", cm.CtxSig)
		}
		menus, release, err := tr.phaseMenus(cm, pv)
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
		release()
	}
}

// TestDecodeFrontMatchesEnumeration pins the bitset and mixed-radix
// decoding the compact fronts rely on: every non-accurate enumeration
// index decodes to exactly the configuration EnumerateConfigs yields at
// that position.
func TestDecodeFrontMatchesEnumeration(t *testing.T) {
	for _, blocks := range [][]approx.Block{toyApp{}.Blocks(), benchApp{}.Blocks(), comd.New().Blocks()} {
		space := enumerateSpace(blocks)
		idx := make([]int32, len(space))
		for j := range idx {
			idx[j] = int32(j)
		}
		f := newFront(idx, len(space))
		if f.size() != len(space) {
			t.Fatalf("full front holds %d of %d configurations", f.size(), len(space))
		}
		cfgs := make([]approx.Config, len(space))
		f.decode(blocks, make([]int, len(space)*len(blocks)), cfgs)
		if !reflect.DeepEqual(cfgs, space) {
			t.Fatalf("decoded configurations diverge from the enumeration over %d blocks", len(blocks))
		}
		// Every other index: the decoder skips unset bits.
		var odd []int32
		for j := 1; j < len(space); j += 2 {
			odd = append(odd, int32(j))
		}
		cfgs = cfgs[:len(odd)]
		newFront(odd, len(space)).decode(blocks, make([]int, len(odd)*len(blocks)), cfgs)
		for k, j := range odd {
			if !reflect.DeepEqual(cfgs[k], space[j]) {
				t.Fatalf("index %d decodes to %v, enumeration has %v", j, cfgs[k], space[j])
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
	space := len(enumerateSpace(tr.Blocks))
	if len(tr.library.classes) != len(tr.Classes) {
		t.Fatalf("library covers %d of %d classes", len(tr.library.classes), len(tr.Classes))
	}
	for sig, fronts := range tr.library.classes {
		if len(fronts) != tr.Phases {
			t.Fatalf("class %q: %d phase fronts for %d phases", sig, len(fronts), tr.Phases)
		}
		for ph, f := range fronts {
			if len(f) != (space+7)/8 {
				t.Fatalf("class %q phase %d: %d-byte front for %d configs", sig, ph, len(f), space)
			}
			if n := f.size(); n == 0 || n > space {
				t.Fatalf("class %q phase %d: %d survivors out of %d configs", sig, ph, n, space)
			}
		}
	}
}

// TestFrontLibraryPrunesBenchApp checks tier 1 does real work on a space
// with dominated configurations: on benchApp every gamma > 0 setting is
// dominated, so well over half of the 215 configurations must be pruned
// — and the surviving front must still produce oracle-identical plans.
func TestFrontLibraryPrunesBenchApp(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a 3-block model; skipped with -short")
	}
	tr := trainBench(t)
	params := []apps.Params{{"size": 10}, {"size": 20}}
	space := len(enumerateSpace(tr.Blocks))
	for sig, fronts := range tr.library.classes {
		for ph, f := range fronts {
			if n := f.size(); n > space/2 {
				t.Fatalf("class %q phase %d: only %d of %d configs pruned",
					sig, ph, space-n, space)
			}
		}
	}
	if !reflect.DeepEqual(scalarGrid(t, tr, params, libGridBudgets), optimizeGrid(t, tr, params, libGridBudgets)) {
		t.Fatal("front-path plans diverge from the full-space oracle on benchApp")
	}
}

// TestFrontLibraryPoolSizeInvariant pins the fixed-slot pool: the
// library is the same with one prune worker as with more workers than
// (class, phase) jobs.
func TestFrontLibraryPoolSizeInvariant(t *testing.T) {
	tr, err := Train(apps.NewRunner(twoPathApp{}), fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	want := tr.library
	for _, workers := range []int{1, 3, 64} {
		tr.Opts.Parallelism = workers
		if err := tr.buildFrontLibrary(); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(tr.library, want) {
			t.Fatalf("%d prune workers built a different library", workers)
		}
	}
}

// TestPruneDominated pins the dominance filter on controlled prediction
// matrices: dominated configurations are removed, equal-prediction ties
// keep the earlier enumeration index, disagreement across anchors blocks
// pruning, and floor-bound configurations drop out.
func TestPruneDominated(t *testing.T) {
	// Five configurations (rows) at two anchors (columns):
	//   cfg0 dominates cfg1 at both anchors (equal speedup, less degradation).
	//   cfg2 beats cfg3 at anchor 0 but not at anchor 1 -> cfg3 must survive.
	//   cfg4 never beats the accurate floor (speedup <= 1 everywhere).
	spd := []float64{
		1.5, 1.4,
		1.5, 1.4,
		2.0, 1.8,
		1.9, 1.9,
		1.0, 0.9,
	}
	deg := []float64{
		1.0, 1.0,
		2.0, 2.0,
		3.0, 3.0,
		4.0, 4.0,
		0.5, 0.5,
	}
	if got, want := pruneDominated(5, spd, deg, 2), []int32{0, 2, 3}; !reflect.DeepEqual(got, want) {
		t.Fatalf("survivors %v, want %v", got, want)
	}
	// With only anchor 0, cfg3 is dominated by cfg2 too.
	spd0, deg0 := make([]float64, 5), make([]float64, 5)
	for j := range spd0 {
		spd0[j], deg0[j] = spd[2*j], deg[2*j]
	}
	if got, want := pruneDominated(5, spd0, deg0, 1), []int32{0, 2}; !reflect.DeepEqual(got, want) {
		t.Fatalf("single-anchor survivors %v, want %v", got, want)
	}
}

// TestOptimizeBudgetMonotoneFront re-runs the budget monotonicity
// property on the front path.
func TestOptimizeBudgetMonotoneFront(t *testing.T) {
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

// TestLibraryPersistRoundTrip trains, saves, reloads, and requires the
// loaded model to carry the identical survivor sets — imported, not
// rebuilt — and to serve identical plans. No records travel with the
// file, so this also pins that the anchors derive from the persisted
// specs and seed alone.
func TestLibraryPersistRoundTrip(t *testing.T) {
	_, tr := trainToy(t)
	var buf bytes.Buffer
	if err := tr.Save(&buf); err != nil {
		t.Fatal(err)
	}
	builds := obs.Default.Counter("core.library.builds")
	before := builds.Value()
	loaded, err := LoadTrained(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if builds.Value() != before {
		t.Fatal("loading a file with a current library rebuilt it")
	}
	if !reflect.DeepEqual(tr.library, loaded.library) {
		t.Fatal("survivor sets diverge across a save/load round trip")
	}
	rebuilt := *loaded
	if err := rebuilt.buildFrontLibrary(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rebuilt.library, loaded.library) {
		t.Fatal("a loaded model's anchors prune differently from training's")
	}
	want := optimizeGrid(t, tr, libGridParams, libGridBudgets)
	got := optimizeGrid(t, loaded, libGridParams, libGridBudgets)
	if !reflect.DeepEqual(want, got) {
		t.Fatal("front-path plans diverge across a save/load round trip")
	}
}

// TestLoadRebuildsLibraryUnderOtherAnchors loads a model file written
// before the anchor rule was recorded (testdata/prechange_model.json:
// the toy app at fastOptions, saved with the front library switched on
// and pruned at the training vectors only) and current files whose
// library is missing or carries another rule. Each rebuilds the library
// under the current rule instead of trusting the persisted fronts.
func TestLoadRebuildsLibraryUnderOtherAnchors(t *testing.T) {
	old, err := os.ReadFile(filepath.Join("testdata", "prechange_model.json"))
	if err != nil {
		t.Fatal(err)
	}
	_, tr := trainToy(t)
	var buf bytes.Buffer
	if err := tr.Save(&buf); err != nil {
		t.Fatal(err)
	}
	drop := func(mf map[string]any) { delete(mf, "front_library") }
	otherRule := func(mf map[string]any) { mf["front_library"].(map[string]any)["anchors"] = "training-vectors" }
	files := map[string][]byte{"pre-change Save": old, "no library": mutateModel(t, buf.Bytes(), drop),
		"other anchor rule": mutateModel(t, buf.Bytes(), otherRule)}
	builds := obs.Default.Counter("core.library.builds")
	for name, raw := range files {
		t.Run(name, func(t *testing.T) {
			before := builds.Value()
			loaded, err := LoadTrained(bytes.NewReader(raw))
			if err != nil {
				t.Fatal(err)
			}
			if builds.Value() != before+1 {
				t.Fatal("load did not rebuild the library")
			}
			fresh := *loaded
			if err := fresh.buildFrontLibrary(); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(fresh.library, loaded.library) {
				t.Fatal("load kept fronts pruned under another anchor rule")
			}
			if !reflect.DeepEqual(scalarGrid(t, loaded, libGridParams, libGridBudgets),
				optimizeGrid(t, loaded, libGridParams, libGridBudgets)) {
				t.Fatal("rebuilt library plans diverge from the full-space oracle")
			}
		})
	}
	var mf map[string]any
	if err := json.Unmarshal(old, &mf); err != nil {
		t.Fatal(err)
	}
	if _, ok := mf["front_library"]; !ok {
		t.Fatal("fixture lost its pre-change front library")
	}
}

// mutateModel round-trips a saved model through a generic JSON map.
func mutateModel(t *testing.T, raw []byte, mutate func(map[string]any)) []byte {
	t.Helper()
	var mf map[string]any
	if err := json.Unmarshal(raw, &mf); err != nil {
		t.Fatal(err)
	}
	mutate(mf)
	out, err := json.Marshal(mf)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestImportLibraryRejectsCorrupt exercises the structural validation on
// the persisted survivor sets: a corrupt library must fail the load, not
// produce a silently wrong fast path.
func TestImportLibraryRejectsCorrupt(t *testing.T) {
	_, tr := trainToy(t)
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
		{"index out of range", func(classes map[string]any) {
			f := make([]byte, (nspace+7)/8)
			f[nspace/8] |= 1 << (nspace % 8)
			classes[sig].([]any)[0] = base64.StdEncoding.EncodeToString(f)
		}},
		{"front too long", func(classes map[string]any) {
			classes[sig].([]any)[0] = base64.StdEncoding.EncodeToString(make([]byte, (nspace+7)/8+1))
		}},
		{"front too short", func(classes map[string]any) {
			classes[sig].([]any)[0] = base64.StdEncoding.EncodeToString(make([]byte, (nspace+7)/8-1))
		}},
		{"not base64", func(classes map[string]any) {
			classes[sig].([]any)[0] = "!!"
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
			raw := mutateModel(t, buf.Bytes(), func(mf map[string]any) {
				lib, ok := mf["front_library"].(map[string]any)
				if !ok {
					t.Fatal("saved model has no front_library field")
				}
				tc.mutate(lib["classes"].(map[string]any))
			})
			if _, err := LoadTrained(bytes.NewReader(raw)); err == nil {
				t.Fatal("corrupt library accepted")
			}
		})
	}
}

// TestLibraryParamVecsAnchors checks the pruning anchor set: sorted and
// deduplicated; holding every representative grid point, the
// all-defaults vector and the interior sample inside the parameter box;
// a function of (Specs, Seed) alone.
func TestLibraryParamVecsAnchors(t *testing.T) {
	specs := comd.New().Params()
	tr := &Trained{Specs: specs, Opts: Options{Seed: 1}}
	got := tr.libraryParamVecs()
	grid := ParamCombos(specs, 0, nil)
	if want := len(grid) + 1 + interiorAnchors; len(got) != want {
		t.Fatalf("%d anchors, want %d (grid %d, default, interior %d)", len(got), want, len(grid), interiorAnchors)
	}
	for i := 1; i < len(got); i++ {
		if slices.Compare(got[i-1], got[i]) >= 0 {
			t.Fatalf("anchors not strictly increasing at %d: %v then %v", i, got[i-1], got[i])
		}
	}
	has := func(v []float64) bool {
		for _, a := range got {
			if slices.Equal(a, v) {
				return true
			}
		}
		return false
	}
	for _, p := range grid {
		if !has(p.Vector(specs)) {
			t.Fatalf("grid point %v is not an anchor", p)
		}
	}
	if def := (apps.Params{}).Vector(specs); !has(def) {
		t.Fatalf("default vector %v is not an anchor", def)
	}
	for _, v := range got {
		for i, s := range specs {
			if v[i] < min(s.Values[0], s.Values[1]) || v[i] > max(s.Values[0], s.Values[1]) {
				t.Fatalf("anchor %v leaves the box of parameter %s", v, s.Name)
			}
		}
	}
	if again := tr.libraryParamVecs(); !reflect.DeepEqual(again, got) {
		t.Fatal("anchors differ between two calls")
	}
	tr.Opts.Seed = 2
	if other := tr.libraryParamVecs(); reflect.DeepEqual(other, got) {
		t.Fatal("the interior sample ignores the seed")
	}
	// Duplicates collapse: two representative values that coincide give
	// one grid point.
	tr.Specs = []apps.ParamSpec{{Name: "x", Values: []float64{3, 3}, Default: 3}}
	if got := tr.libraryParamVecs(); len(got) != 1 {
		t.Fatalf("degenerate box gave %d anchors, want 1", len(got))
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
	if len(tr.library.classes) != len(tr.Classes) {
		t.Fatalf("library covers %d of %d classes", len(tr.library.classes), len(tr.Classes))
	}
	if !reflect.DeepEqual(scalarGrid(t, tr, params, libGridBudgets), optimizeGrid(t, tr, params, libGridBudgets)) {
		t.Fatal("front-path plans diverge from the full-space oracle on the two-class app")
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
	pv := apps.DefaultParams(toyApp{}).Vector(tr.Specs)
	cm, err := tr.classFor(pv)
	if err != nil {
		fuzzMenus.err = err
		return
	}
	// The cached ladders outlive this call, so their scratch is never
	// released back to the pool.
	fuzzMenus.front, _, fuzzMenus.err = tr.phaseMenus(cm, pv)
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
