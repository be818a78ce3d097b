package core

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"

	"opprox/internal/approx"
	"opprox/internal/apps"
	"opprox/internal/ml/arena"
	"opprox/internal/ml/poly"
	"opprox/internal/obs"
)

// This file holds Optimize's one menu builder, buildPhaseFront, and the
// two-tier Pareto-front plan library (DESIGN.md §14) that narrows the
// configurations it is given. Tier 1 runs once per model version: for
// every (control-flow class, phase) the full configuration space is
// evaluated through one batched predict pass per sampled training
// parameter vector, and every configuration that some earlier-enumerated
// configuration weakly dominates at ALL sampled vectors is pruned. Tier 2
// runs per dispatch: the ladder is built over the survivors only, so
// Optimize's menus cost O(survivors) predictions instead of O(space).
//
// Pruning is exact at the sampled parameter vectors: the ladder keeps a
// configuration only when it beats every cheaper one, so a configuration
// with an earlier-enumerated weak dominator (spd >= its spd AND deg <=
// its deg) can never be on the ladder — the stable degradation sort
// places the dominator first and the strictly-increasing-speedup filter
// then rejects the dominated entry. Dropping never-kept entries leaves
// ladder construction untouched, and weak dominance restricted to
// earlier indices is transitive, so checking candidates against current
// survivors suffices. Plans built from the front are therefore
// bitwise-identical to full-space plans at the sampled vectors; at other
// inputs they remain valid ladders over a model-identical prediction
// surface, just over fewer rungs.

// maxLibraryPVs caps how many training parameter vectors dominance
// pruning samples per phase. Tier-1 cost is O(configs² · pvs) per phase,
// so the cap keeps library builds cheap while still anchoring pruning at
// a spread of real training inputs.
const maxLibraryPVs = 16

// phaseFront is one phase's pruned configuration set: the survivors of
// dominance pruning in ascending enumeration order, with their indices
// into the non-accurate enumeration of the configuration space (the
// persisted representation).
type phaseFront struct {
	cfgs []approx.Config
	idx  []int
}

// classFronts holds the per-phase fronts of one control-flow class.
type classFronts struct {
	phase []*phaseFront
}

// planLibrary is the tier-1 artifact: per-class, per-phase survivor sets.
// calSpd/calDeg record the per-phase calibration shifts the fronts were
// pruned under (zeros when uncalibrated), so a later recalibration can
// re-prune only the phases whose shifts actually moved.
type planLibrary struct {
	classes map[string]*classFronts
	calSpd  []float64
	calDeg  []float64
}

// EnableFrontLibrary switches Optimize onto the Pareto-front plan
// library, building it first when the model was trained or loaded
// without one. Serving calls it from the model-load hook, so the switch
// always happens before a version is published — never on a model that
// is already serving dispatches.
func (t *Trained) EnableFrontLibrary() error {
	if t.library == nil {
		return t.BuildFrontLibrary()
	}
	t.frontOn = true
	return nil
}

// BuildFrontLibrary constructs the tier-1 library and switches Optimize
// onto it. The parameter vectors anchoring the dominance pruning come
// from the training records when present, and are otherwise reproduced
// from (Specs, Seed, MaxParamCombos) — ParamCombos is the first rng
// consumer in Train, so a loaded model (which carries no records)
// samples exactly the combos training saw.
func (t *Trained) BuildFrontLibrary() error {
	stop := obs.Timer("core.library.build_duration")
	defer stop()
	space := enumerateSpace(t.Blocks)
	pvs := t.libraryParamVecs()
	if len(pvs) == 0 {
		return fmt.Errorf("core: no parameter vectors to anchor the front library")
	}
	lib := &planLibrary{classes: make(map[string]*classFronts, len(t.Classes))}
	for _, sig := range t.classSigs() {
		cm := t.Classes[sig]
		cf := &classFronts{phase: make([]*phaseFront, len(cm.Phase))}
		for ph, pm := range cm.Phase {
			pf, err := t.prunePhase(pm, space, pvs)
			if err != nil {
				return fmt.Errorf("core: front library class %q phase %d: %w", sig, ph, err)
			}
			cf.phase[ph] = pf
			obs.Add("core.library.survivors", int64(len(pf.cfgs)))
			obs.Add("core.library.pruned", int64(len(space)-len(pf.cfgs)))
		}
		lib.classes[sig] = cf
	}
	lib.calSpd, lib.calDeg = t.calibVectors()
	t.library = lib
	t.frontOn = true
	obs.Inc("core.library.builds")
	return nil
}

// calibVectors returns the current per-phase calibration shifts as
// length-Phases slices (all zeros when the models are uncalibrated) —
// the representation the library uses to detect shift changes.
func (t *Trained) calibVectors() (spd, deg []float64) {
	spd = make([]float64, t.Phases)
	deg = make([]float64, t.Phases)
	if t.calib != nil {
		copy(spd, t.calib.spd)
		copy(deg, t.calib.deg)
	}
	return spd, deg
}

// RefreshFrontLibrary incrementally updates the plan library after a
// calibration change: only phases whose shifts differ from the ones the
// fronts were pruned under are re-pruned (calibration enters pruning
// through predictConfigsBatch, so an unchanged shift leaves a phase's
// predictions — and therefore its survivor set — bit-for-bit identical
// to a full rebuild's). Returns the re-pruned phase indices; a no-op
// when no library is built or nothing shifted. Callers that change a
// phase's models themselves (RetrainGlobal) rebuild those phases
// directly instead.
func (t *Trained) RefreshFrontLibrary() ([]int, error) {
	if t.library == nil {
		return nil, nil
	}
	curSpd, curDeg := t.calibVectors()
	var changed []int
	for ph := 0; ph < t.Phases; ph++ {
		oldS, oldD := 0.0, 0.0
		if ph < len(t.library.calSpd) {
			oldS, oldD = t.library.calSpd[ph], t.library.calDeg[ph]
		}
		if curSpd[ph] != oldS || curDeg[ph] != oldD {
			changed = append(changed, ph)
		}
	}
	if len(changed) == 0 {
		return nil, nil
	}
	if err := t.rebuildFrontPhases(changed); err != nil {
		return nil, err
	}
	return changed, nil
}

// rebuildFrontPhases re-runs dominance pruning for the given phases in
// every class and records the calibration the new fronts were pruned
// under. The untouched phases keep their survivor sets.
func (t *Trained) rebuildFrontPhases(phases []int) error {
	stop := obs.Timer("core.library.refresh_duration")
	defer stop()
	space := enumerateSpace(t.Blocks)
	pvs := t.libraryParamVecs()
	if len(pvs) == 0 {
		return fmt.Errorf("core: no parameter vectors to anchor the front library")
	}
	for _, sig := range t.classSigs() {
		cf := t.library.classes[sig]
		if cf == nil {
			return fmt.Errorf("core: front library is missing class %q", sig)
		}
		cm := t.Classes[sig]
		for _, ph := range phases {
			if ph < 0 || ph >= len(cf.phase) {
				return fmt.Errorf("core: front refresh phase %d out of range", ph)
			}
			pf, err := t.prunePhase(cm.Phase[ph], space, pvs)
			if err != nil {
				return fmt.Errorf("core: front refresh class %q phase %d: %w", sig, ph, err)
			}
			cf.phase[ph] = pf
		}
	}
	curSpd, curDeg := t.calibVectors()
	if len(t.library.calSpd) != t.Phases {
		t.library.calSpd = make([]float64, t.Phases)
		t.library.calDeg = make([]float64, t.Phases)
	}
	for _, ph := range phases {
		t.library.calSpd[ph] = curSpd[ph]
		t.library.calDeg[ph] = curDeg[ph]
	}
	obs.Inc("core.library.refreshes")
	return nil
}

// enumerateSpace collects the non-accurate configuration space in
// enumeration order. A configuration's position in the returned slice is
// its enumeration index — the identity the persisted library stores.
func enumerateSpace(blocks []approx.Block) []approx.Config {
	space := make([]approx.Config, 0, approx.NumConfigs(blocks)-1)
	approx.EnumerateConfigs(blocks, func(cfg approx.Config) bool {
		if !cfg.IsAccurate() {
			space = append(space, cfg) // EnumerateConfigs hands over a copy
		}
		return true
	})
	return space
}

// libraryParamVecs returns the deduplicated, lexicographically sorted
// parameter vectors dominance pruning samples, capped at maxLibraryPVs
// by even striding (first and last always kept).
func (t *Trained) libraryParamVecs() [][]float64 {
	var vecs [][]float64
	if len(t.Records) > 0 {
		for _, r := range t.Records {
			vecs = append(vecs, r.ParamVec)
		}
	} else {
		rng := rand.New(rand.NewSource(t.Opts.Seed))
		for _, p := range ParamCombos(t.Specs, t.Opts.MaxParamCombos, rng) {
			vecs = append(vecs, p.Vector(t.Specs))
		}
	}
	sort.SliceStable(vecs, func(a, b int) bool { return lexLess(vecs[a], vecs[b]) })
	uniq := vecs[:0:0]
	for _, v := range vecs {
		if len(uniq) > 0 && lexEqual(uniq[len(uniq)-1], v) {
			continue
		}
		uniq = append(uniq, v)
	}
	if len(uniq) > maxLibraryPVs {
		out := make([][]float64, maxLibraryPVs)
		for k := range out {
			// Strictly increasing positions: the stride is >= 1 whenever
			// len(uniq) > maxLibraryPVs.
			out[k] = uniq[k*(len(uniq)-1)/(maxLibraryPVs-1)]
		}
		uniq = out
	}
	return uniq
}

func lexLess(a, b []float64) bool {
	for i := range a {
		if i >= len(b) {
			return false
		}
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

func lexEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// prunePhase batch-evaluates the whole configuration space at every
// sampled parameter vector and keeps only configurations that (a) beat
// the accurate floor somewhere and (b) have no earlier-enumerated weak
// dominator across all sampled vectors.
func (t *Trained) prunePhase(pm *PhaseModel, space []approx.Config, pvs [][]float64) (*phaseFront, error) {
	n := len(space)
	pf := &phaseFront{}
	if n == 0 {
		return pf, nil
	}
	npv := len(pvs)
	spd := make([]float64, npv*n)
	deg := make([]float64, npv*n)
	for p, pv := range pvs {
		if err := pm.predictConfigsBatch(t, pv, space, spd[p*n:(p+1)*n], deg[p*n:(p+1)*n]); err != nil {
			return nil, err
		}
	}
	return pruneDominated(space, spd, deg, npv), nil
}

// pruneDominated is the pure dominance filter over pre-computed
// prediction matrices (spd and deg hold npv stacked rows of
// len(space) predictions each).
func pruneDominated(space []approx.Config, spd, deg []float64, npv int) *phaseFront {
	n := len(space)
	pf := &phaseFront{}
	for j := 0; j < n; j++ {
		// A configuration that never beats the accurate floor (speedup 1,
		// degradation 0) is never on any sampled ladder.
		useful := false
		for p := 0; p < npv; p++ {
			if spd[p*n+j] > 1 {
				useful = true
				break
			}
		}
		if !useful {
			continue
		}
		dominated := false
		for _, i := range pf.idx {
			domAll := true
			for p := 0; p < npv; p++ {
				if spd[p*n+i] < spd[p*n+j] || deg[p*n+i] > deg[p*n+j] {
					domAll = false
					break
				}
			}
			if domAll {
				dominated = true
				break
			}
		}
		if dominated {
			continue
		}
		pf.cfgs = append(pf.cfgs, space[j])
		pf.idx = append(pf.idx, j)
	}
	return pf
}

// phaseMenus builds every phase's upgrade ladder with buildPhaseFront:
// over the phase's survivors when the library is on and covers the
// class, otherwise over the whole non-accurate space, enumerated once
// and shared by every phase.
func (t *Trained) phaseMenus(cm *ClassModels, paramVec []float64) ([]phaseMenu, error) {
	var cf *classFronts
	if t.frontOn && t.library != nil {
		if c := t.library.classes[cm.CtxSig]; c != nil && len(c.phase) == len(cm.Phase) {
			cf = c
		}
	}
	var space []approx.Config
	if cf == nil {
		space = enumerateSpace(t.Blocks)
	} else {
		stop := obs.Timer("core.library.front_duration")
		defer stop()
	}
	menus := make([]phaseMenu, len(cm.Phase))
	for ph, pm := range cm.Phase {
		cfgs := space
		if cf != nil {
			cfgs = cf.phase[ph].cfgs
		}
		m, err := t.buildPhaseFront(pm, cfgs, paramVec)
		if err != nil {
			return nil, err
		}
		menus[ph] = m
	}
	if cf != nil {
		obs.Inc("core.library.front_builds")
	}
	return menus, nil
}

// buildPhaseFront collapses configurations, in ascending enumeration
// order, into the phase's upgrade ladder with one batched prediction
// pass. Feasibility is judged on the conservative degradation (paper
// §3.6) but the ladder ranks on the expected speedup: the band's
// half-width is a per-phase constant on the log scale, so the lower edge
// would keep the ranking while rejecting every modest speedup against
// the accurate default. The stable sort keeps enumeration order among
// equal degradations, so every plan is deterministic.
func (t *Trained) buildPhaseFront(pm *PhaseModel, cfgs []approx.Config, paramVec []float64) (phaseMenu, error) {
	m := phaseMenu{accurate: make(approx.Config, len(t.Blocks))}
	n := len(cfgs)
	if n == 0 {
		return m, nil
	}
	slab := arena.NewSlab(2 * n)
	defer slab.Release()
	spd := slab.Floats(n)
	deg := slab.Floats(n)
	if err := pm.predictConfigsBatch(t, paramVec, cfgs, spd, deg); err != nil {
		return m, err
	}
	obs.Add("core.optimize.configs_scanned", int64(n))
	orderp := arena.Ints(n)
	defer arena.PutInts(orderp)
	order := *orderp
	for i := range order {
		order[i] = i
	}
	// The stable sort consults only cmp < 0: exactly deg[a] < deg[b],
	// NaN included.
	slices.SortStableFunc(order, func(a, b int) int {
		switch {
		case deg[a] < deg[b]:
			return -1
		case deg[b] < deg[a]:
			return 1
		}
		return 0
	})
	bestSpd := 1.0 // the accurate configuration is always feasible
	for _, i := range order {
		if spd[i] > bestSpd {
			m.ladder = append(m.ladder, phaseChoice{cfg: cfgs[i], spd: spd[i], deg: deg[i]})
			bestSpd = spd[i]
		}
	}
	return m, nil
}

// predictConfigsBatch writes, per configuration, the expected speedup
// and the conservative degradation (upper confidence edge when
// Opts.UseConfidence). The local models read only [params..., level of
// block b], so each is tabulated once per level and gathered by cfg[b];
// the iteration and global models run once per configuration. Every
// evaluation goes through predictRawBatch, whose per-row arithmetic is
// the scalar path's, so results are bit-for-bit those of predictConfig.
func (pm *PhaseModel) predictConfigsBatch(t *Trained, paramVec []float64, cfgs []approx.Config, spd, deg []float64) error {
	n := len(cfgs)
	if len(spd) != n || len(deg) != n {
		return fmt.Errorf("core: predictConfigsBatch outputs %d/%d for %d configs", len(spd), len(deg), n)
	}
	if n == 0 {
		return nil
	}
	np := len(paramVec)
	nb := len(t.Blocks)
	gw := nb // global feature width
	if t.Opts.UseIterFeature {
		gw++
	}
	maxLv := 0
	for _, blk := range t.Blocks {
		maxLv = max(maxLv, blk.Levels())
	}
	slab := arena.NewSlab(maxLv*(np+1) + 2*maxLv + 2*n*gw + n*(np+nb) + n)
	defer slab.Release()
	lxFlat := slab.Floats(maxLv * (np + 1))
	spdTab, degTab := slab.Floats(maxLv), slab.Floats(maxLv)
	sfFlat, dfFlat := slab.Floats(n*gw), slab.Floats(n*gw)
	iterFlat := slab.Floats(n * (np + nb))
	col := slab.Floats(n)

	// A front can hold fewer configurations than a block has levels.
	rowsp := arena.Rows(max(n, maxLv))
	defer arena.PutRows(rowsp)
	rows := *rowsp

	// One [params..., level] row per level; block b reads the first
	// Levels() of them.
	for l := 0; l < maxLv; l++ {
		row := lxFlat[l*(np+1) : (l+1)*(np+1)]
		copy(row, paramVec)
		row[np] = float64(l)
		rows[l] = row
	}
	for b, blk := range t.Blocks {
		lv := blk.Levels()
		if err := pm.localSpeedup[b].predictRawBatch(rows[:lv], spdTab[:lv]); err != nil {
			return err
		}
		if err := pm.localDeg[b].predictRawBatch(rows[:lv], degTab[:lv]); err != nil {
			return err
		}
		for i, cfg := range cfgs {
			if len(cfg) != nb || cfg[b] < 0 || cfg[b] >= lv {
				return fmt.Errorf("core: configuration %v out of range", cfg)
			}
			sfFlat[i*gw+b] = spdTab[cfg[b]]
			dfFlat[i*gw+b] = degTab[cfg[b]]
		}
	}
	rows = rows[:n]
	if t.Opts.UseIterFeature {
		for i, cfg := range cfgs {
			row := iterFlat[i*(np+nb) : (i+1)*(np+nb)]
			copy(row, paramVec)
			for b, l := range cfg {
				row[np+b] = float64(l)
			}
			rows[i] = row
		}
		if err := pm.iter.predictRawBatch(rows, col); err != nil {
			return err
		}
		for i := range cfgs {
			est := pm.iter.fromRaw(col[i])
			sfFlat[i*gw+nb] = est
			dfFlat[i*gw+nb] = est
		}
	}

	// Global models over the assembled feature rows, straight into the
	// output slices (they hold raw values until the final transform).
	for i := range cfgs {
		rows[i] = sfFlat[i*gw : (i+1)*gw]
	}
	if err := pm.globalSpeedup.predictRawBatch(rows, spd); err != nil {
		return err
	}
	for i := range cfgs {
		rows[i] = dfFlat[i*gw : (i+1)*gw]
	}
	if err := pm.globalDeg.predictRawBatch(rows, deg); err != nil {
		return err
	}
	for i := range cfgs {
		sRaw, dRaw := spd[i], deg[i]
		if t.calib != nil && pm.Phase < len(t.calib.spd) {
			sRaw += t.calib.spd[pm.Phase]
			dRaw += t.calib.deg[pm.Phase]
		}
		if t.Opts.UseConfidence {
			dRaw = pm.DegCI.Upper(dRaw)
		}
		spd[i] = clampF(pm.globalSpeedup.fromRaw(sRaw), 0.02, 50)
		deg[i] = clampF(pm.globalDeg.fromRaw(dRaw), 0, apps.MaxDegradation)
	}
	return nil
}

// predictRawBatch evaluates the model on every row of full into out
// (len(out) must equal len(full)), on the training scale with no band or
// clamp — the batched predictRawScratch. Split models partition the rows
// on the raw split feature and recurse; space-expanded models widen
// every row first; the leaf gathers the keep mask and runs one
// poly.Model.PredictBatch, which is bit-for-bit the scalar PredictScratch
// per row. Equivalence tests pin batch == scalar exactly.
func (fm *filteredModel) predictRawBatch(full [][]float64, out []float64) error {
	if len(out) != len(full) {
		return fmt.Errorf("core: predictRawBatch out length %d for %d rows", len(out), len(full))
	}
	if len(full) == 0 {
		return nil
	}
	if fm.lo != nil && fm.hi != nil {
		loRowsp, hiRowsp := arena.Rows(len(full)), arena.Rows(len(full))
		defer arena.PutRows(loRowsp)
		defer arena.PutRows(hiRowsp)
		loIdxp, hiIdxp := arena.Ints(len(full)), arena.Ints(len(full))
		defer arena.PutInts(loIdxp)
		defer arena.PutInts(hiIdxp)
		subp := arena.Floats(len(full))
		defer arena.PutFloats(subp)
		loRows, hiRows := (*loRowsp)[:0], (*hiRowsp)[:0]
		loIdx, hiIdx := (*loIdxp)[:0], (*hiIdxp)[:0]
		for i, x := range full {
			if x[fm.splitFeat] <= fm.splitVal {
				loRows = append(loRows, x)
				loIdx = append(loIdx, i)
			} else {
				hiRows = append(hiRows, x)
				hiIdx = append(hiIdx, i)
			}
		}
		sub := *subp
		if err := fm.lo.predictRawBatch(loRows, sub[:len(loRows)]); err != nil {
			return err
		}
		for k, i := range loIdx {
			out[i] = sub[k]
		}
		if err := fm.hi.predictRawBatch(hiRows, sub[:len(hiRows)]); err != nil {
			return err
		}
		for k, i := range hiIdx {
			out[i] = sub[k]
		}
		return nil
	}
	rows := full
	if fm.expandN > 0 {
		se := poly.SpaceExpansion{NRaw: fm.expandN}
		nd := se.Dim()
		slab := arena.NewSlab(len(full) * nd)
		defer slab.Release()
		viewsp := arena.Rows(len(full))
		defer arena.PutRows(viewsp)
		views := *viewsp
		for i, x := range full {
			buf := slab.Floats(nd)
			views[i] = se.ExpandInto(buf[:0], x)
		}
		rows = views
	}
	if len(fm.keep) != len(rows[0]) {
		gslab := arena.NewSlab(len(full) * len(fm.keep))
		defer gslab.Release()
		gatherp := arena.Rows(len(full))
		defer arena.PutRows(gatherp)
		gather := *gatherp
		for i, x := range rows {
			sel := gslab.Floats(len(fm.keep))
			for k, j := range fm.keep {
				sel[k] = x[j]
			}
			gather[i] = sel
		}
		rows = gather
	}
	return fm.model.PredictBatch(out, rows)
}
