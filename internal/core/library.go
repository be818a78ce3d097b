package core

import (
	"fmt"
	"math/bits"
	"math/rand"
	"runtime"
	"slices"
	"sync"

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
// evaluated through one batched predict pass per anchor parameter
// vector, and every configuration that some earlier-enumerated
// configuration weakly dominates at ALL anchors is pruned. Tier 2 runs
// per dispatch: the ladder is built over the survivors only, so
// Optimize's menus cost O(survivors) predictions instead of O(space).
//
// Pruning is exact at the anchors: the ladder keeps a configuration only
// when it beats every cheaper one, so a configuration with an
// earlier-enumerated weak dominator (spd >= its spd AND deg <= its deg)
// can never be on the ladder — the stable degradation sort places the
// dominator first and the strictly-increasing-speedup filter then
// rejects the dominated entry. Dropping never-kept entries leaves ladder
// construction untouched, and weak dominance restricted to earlier
// indices is transitive, so checking candidates against current
// survivors suffices. Plans built from the front are therefore
// bitwise-identical to full-space plans at the anchors; at other inputs
// they remain valid ladders over a model-identical prediction surface,
// and the anchors are dense enough over the input box that held-out
// plans match the full-space oracle too (oracle_test.go measures it).

// anchorRule names the rule libraryParamVecs anchors pruning with. It is
// persisted with the survivor sets; a library pruned under any other
// rule (or none: files written before the rule was recorded) is rebuilt
// at load instead of trusted.
const anchorRule = "grid+default+interior64"

// interiorAnchors is the size of the seeded interior sample that anchors
// pruning between the representative grid points.
const interiorAnchors = 64

// anchorSeedSalt keeps the interior sample's stream apart from every
// other consumer of Options.Seed (training, canary probes, held-out
// draws seeded with the same value).
const anchorSeedSalt = 0x1ab5eed

// planLibrary is the tier-1 artifact: per control-flow class, per phase,
// the survivors of dominance pruning as a front bitset (the persisted
// representation too). calSpd/calDeg record the per-phase calibration
// shifts the fronts were pruned under (zeros when uncalibrated), so a
// recalibration re-prunes only the phases whose shifts actually moved.
type planLibrary struct {
	classes map[string][]front
	calSpd  []float64
	calDeg  []float64
}

// A front is one phase's survivor set over the non-accurate enumeration
// of the configuration space, as a bitset: index j survived when bit
// j%8 of byte j/8 is set. It holds ceil(space/8) bytes — the survivor
// indices and nothing else, strictly increasing by construction — and
// JSON persists it as base64.
type front []byte

// newFront packs ascending survivor indices into a front for a space of
// n configurations.
func newFront(idx []int32, n int) front {
	f := make(front, (n+7)/8)
	for _, j := range idx {
		f[j/8] |= 1 << (j % 8)
	}
	return f
}

// size is the number of survivors.
func (f front) size() int {
	n := 0
	for _, b := range f {
		n += bits.OnesCount8(b)
	}
	return n
}

// buildFrontLibrary constructs the tier-1 library from scratch. Train
// runs it once per model version; LoadTrained runs it only for files
// that carry no library pruned under the current anchorRule.
func (t *Trained) buildFrontLibrary() error {
	lib := &planLibrary{classes: make(map[string][]front, len(t.Classes))}
	lib.calSpd, lib.calDeg = t.calibVectors()
	for sig, cm := range t.Classes {
		lib.classes[sig] = make([]front, len(cm.Phase))
	}
	all := make([]int, t.Phases)
	for ph := range all {
		all[ph] = ph
	}
	if err := t.pruneFronts(lib, all); err != nil {
		return err
	}
	t.library = lib
	obs.Inc("core.library.builds")
	return nil
}

// refreshFrontLibrary brings the library current after a calibration
// change: only phases whose shifts differ from the ones the fronts were
// pruned under are re-pruned (calibration enters pruning through
// predictConfigsBatch, so an unchanged shift leaves a phase's
// predictions — and therefore its survivor set — bit-for-bit identical
// to a full rebuild's). A no-op when no library is built yet or nothing
// shifted. Every calibration setter calls it, so the fronts never lag
// the models Optimize reads.
func (t *Trained) refreshFrontLibrary() error {
	if t.library == nil {
		return nil
	}
	spd, deg := t.calibVectors()
	var changed []int
	for ph := range spd {
		if spd[ph] != t.library.calSpd[ph] || deg[ph] != t.library.calDeg[ph] {
			changed = append(changed, ph)
		}
	}
	if len(changed) == 0 {
		return nil
	}
	return t.pruneFronts(t.library, changed)
}

// pruneFronts re-prunes the given phases of every class into lib and
// records the calibration they were pruned under; other phases keep
// their fronts. The (class, phase) jobs run on a worker pool bounded by
// Options.Parallelism (0 = one per CPU) and each fills its own slot, so
// the library is byte-identical at any pool size. The first failing job
// in job order decides the error, and a failure leaves lib untouched.
func (t *Trained) pruneFronts(lib *planLibrary, phases []int) error {
	defer obs.Timer("core.library.prune_duration")()
	type job struct {
		sig   string
		phase int
	}
	var jobs []job
	for _, sig := range t.classSigs() {
		for _, ph := range phases {
			jobs = append(jobs, job{sig, ph})
		}
	}
	space := enumerateSpace(t.Blocks)
	pvs := t.libraryParamVecs()
	fronts := make([][]int32, len(jobs))
	errs := make([]error, len(jobs))
	workers := t.Opts.Parallelism
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < min(workers, len(jobs)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range next {
				fronts[k], errs[k] = t.prunePhase(t.Classes[jobs[k].sig].Phase[jobs[k].phase], space, pvs)
			}
		}()
	}
	for k := range jobs {
		next <- k
	}
	close(next)
	wg.Wait()
	for k, j := range jobs {
		if errs[k] != nil {
			return fmt.Errorf("core: front library class %q phase %d: %w", j.sig, j.phase, errs[k])
		}
	}
	for k, j := range jobs {
		lib.classes[j.sig][j.phase] = newFront(fronts[k], len(space))
		obs.Add("core.library.survivors", int64(len(fronts[k])))
	}
	spd, deg := t.calibVectors()
	for _, ph := range phases {
		lib.calSpd[ph], lib.calDeg[ph] = spd[ph], deg[ph]
	}
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

// enumerateSpace collects the non-accurate configuration space in
// enumeration order. A configuration's position in the returned slice is
// its enumeration index — the identity the library stores.
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

// decode writes the level vectors of the survivors, in ascending
// enumeration order, into flat (len(blocks) ints per configuration) and
// points cfgs (f.size() long) at them. EnumerateConfigs is lexicographic
// with the last block varying fastest and starts at the accurate
// all-zero configuration, so non-accurate index j is the mixed-radix
// number j+1 over the blocks' level counts.
func (f front) decode(blocks []approx.Block, flat []int, cfgs []approx.Config) {
	nb := len(blocks)
	k := 0
	for i, by := range f {
		for ; by != 0; by &= by - 1 {
			cfg := flat[k*nb : (k+1)*nb : (k+1)*nb]
			r := 8*i + bits.TrailingZeros8(by) + 1
			for b := nb - 1; b >= 0; b-- {
				lv := blocks[b].Levels()
				cfg[b] = r % lv
				r /= lv
			}
			cfgs[k] = cfg
			k++
		}
	}
}

// libraryParamVecs returns the anchorRule's parameter vectors, sorted
// lexicographically and deduplicated: every point of the representative
// grid, the all-defaults vector (experiments report on it, and it is
// off-grid for some apps), and interiorAnchors vectors drawn uniformly
// over each parameter's [min, max] representative range — the box cold
// dispatches arrive from. Everything derives from (Specs, Opts.Seed), so
// a loaded model, which carries no training records, anchors exactly
// where training did.
func (t *Trained) libraryParamVecs() [][]float64 {
	var vecs [][]float64
	for _, p := range ParamCombos(t.Specs, 0, nil) {
		vecs = append(vecs, p.Vector(t.Specs))
	}
	vecs = append(vecs, apps.Params{}.Vector(t.Specs))
	rng := rand.New(rand.NewSource(t.Opts.Seed ^ anchorSeedSalt))
	for k := 0; k < interiorAnchors; k++ {
		v := make([]float64, len(t.Specs))
		for i, s := range t.Specs {
			lo, hi := s.Values[0], s.Values[0]
			for _, x := range s.Values {
				lo, hi = min(lo, x), max(hi, x)
			}
			v[i] = lo + rng.Float64()*(hi-lo)
		}
		vecs = append(vecs, v)
	}
	slices.SortFunc(vecs, slices.Compare)
	return slices.CompactFunc(vecs, slices.Equal)
}

// prunePhase batch-evaluates the whole configuration space at every
// anchor and keeps only configurations that (a) beat the accurate floor
// somewhere and (b) have no earlier-enumerated weak dominator across all
// anchors.
func (t *Trained) prunePhase(pm *PhaseModel, space []approx.Config, pvs [][]float64) ([]int32, error) {
	n, npv := len(space), len(pvs)
	if n == 0 || npv == 0 {
		return nil, nil
	}
	// One contiguous row of npv predictions per configuration, so each
	// dominance check compares two short contiguous vectors.
	spd := make([]float64, n*npv)
	deg := make([]float64, n*npv)
	slab := arena.NewSlab(2 * n)
	defer slab.Release()
	rowS, rowD := slab.Floats(n), slab.Floats(n)
	for p, pv := range pvs {
		if err := pm.predictConfigsBatch(t, pv, space, rowS, rowD); err != nil {
			return nil, err
		}
		for j := range space {
			spd[j*npv+p] = rowS[j]
			deg[j*npv+p] = rowD[j]
		}
	}
	return pruneDominated(n, spd, deg, npv), nil
}

// pruneDominated is the pure dominance filter over pre-computed
// predictions: configuration j's predictions at the npv anchors are
// spd[j*npv : (j+1)*npv] and deg[j*npv : (j+1)*npv]. It returns the
// survivors' indices in ascending order.
func pruneDominated(n int, spd, deg []float64, npv int) []int32 {
	row := func(m []float64, j int) []float64 { return m[j*npv : (j+1)*npv] }
	// dominates reports whether configuration i is at least as fast and
	// at most as degrading as j at every anchor.
	dominates := func(i, j int) bool {
		si, di, sj, dj := row(spd, i), row(deg, i), row(spd, j), row(deg, j)
		for p := range sj {
			if si[p] < sj[p] || di[p] > dj[p] {
				return false
			}
		}
		return true
	}
	var out []int32
candidates:
	for j := 0; j < n; j++ {
		// A configuration that never beats the accurate floor (speedup 1,
		// degradation 0) is never on any anchor's ladder.
		if !slices.ContainsFunc(row(spd, j), func(s float64) bool { return s > 1 }) {
			continue
		}
		for _, i := range out {
			if dominates(int(i), j) {
				continue candidates
			}
		}
		out = append(out, int32(j))
	}
	return out
}

// phaseMenus builds every phase's upgrade ladder with buildPhaseFront
// over the phase's library survivors, decoded into pooled scratch. The
// ladders' configurations alias that scratch, so callers keep the menus
// no longer than until they call release.
func (t *Trained) phaseMenus(cm *ClassModels, paramVec []float64) (menus []phaseMenu, release func(), err error) {
	var fronts []front
	if t.library != nil {
		fronts = t.library.classes[cm.CtxSig]
	}
	if len(fronts) != len(cm.Phase) {
		return nil, nil, fmt.Errorf("core: front library does not cover class %q", cm.CtxSig)
	}
	total := 0
	for _, f := range fronts {
		total += f.size()
	}
	nb := len(t.Blocks)
	flatp := arena.Ints(total * nb)
	release = func() { arena.PutInts(flatp) }
	cfgs := make([]approx.Config, total)
	menus = make([]phaseMenu, len(cm.Phase))
	off := 0
	for ph, pm := range cm.Phase {
		n := fronts[ph].size()
		c := cfgs[off : off+n]
		fronts[ph].decode(t.Blocks, (*flatp)[off*nb:(off+n)*nb], c)
		off += n
		if menus[ph], err = t.buildPhaseFront(pm, c, paramVec); err != nil {
			release()
			return nil, nil, err
		}
	}
	return menus, release, nil
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
