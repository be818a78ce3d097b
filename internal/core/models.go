package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"opprox/internal/approx"
	"opprox/internal/apps"
	"opprox/internal/ml/arena"
	"opprox/internal/ml/conf"
	"opprox/internal/ml/mic"
	"opprox/internal/ml/poly"
	"opprox/internal/ml/tree"
	"opprox/internal/obs"
)

// pooledClass is the control-flow class identifier for the fallback models
// trained on all records regardless of control flow.
const pooledClass = "*"

// maxExpandedKeep caps how many columns of the space-expanded basis the
// MIC filter may keep (Options.ExpandFeatures). The quadratic derived
// basis can clear a fixed threshold wholesale; an uncapped keep set would
// push the polynomial degree search past the sample budget.
const maxExpandedKeep = 12

// filteredModel is a polynomial model plus the MIC feature mask that was
// applied before fitting (paper §3.7).
// targetScale selects the response transformation a model is fitted on.
// Speedups and QoS degradations both have heavy multiplicative tails;
// fitting them on a log scale keeps the residual band tight where it
// matters (the low-degradation region the optimizer searches) instead of
// letting a few blown-up runs widen the confidence interval everywhere.
// It also linearizes composition: speedups of independent blocks compose
// multiplicatively, which is additive — degree-1 — in log space.
type targetScale int

const (
	scaleLinear targetScale = iota // y
	scaleLog                       // log(y), for strictly positive targets
	scaleLog1p                     // log(1+y), for non-negative targets
)

func (sc targetScale) to(y float64) float64 {
	switch sc {
	case scaleLog:
		return math.Log(math.Max(y, 1e-9))
	case scaleLog1p:
		return math.Log1p(math.Max(y, 0))
	default:
		return y
	}
}

func (sc targetScale) from(v float64) float64 {
	switch sc {
	case scaleLog:
		return math.Exp(v)
	case scaleLog1p:
		return math.Expm1(v)
	default:
		return v
	}
}

type filteredModel struct {
	model *poly.Model
	keep  []int // indices into the (possibly expanded) feature vector
	scale targetScale
	// expandN, when non-zero, is the raw feature count the model's
	// space-expanded basis derives from (Options.ExpandFeatures): inputs
	// are widened by poly.SpaceExpansion{NRaw: expandN} before the keep
	// mask applies. Zero means the model reads raw features directly.
	expandN int
	// degree and cvScore document what the degree search chose; trainR2
	// is the model's fit quality on its training data (routed fit for
	// split models).
	degree  int
	cvScore float64
	trainR2 float64
	// Sub-model split (paper §3.7): when the degree search cannot reach
	// the target R² over the whole training set, the data is split at the
	// median of the most informative feature and a separate model is fit
	// per half. lo/hi are nil for an unsplit model.
	splitFeat int
	splitVal  float64
	lo, hi    *filteredModel
}

// predictRaw evaluates the model on the (possibly log) training scale,
// routing through the sub-model split when present.
func (fm *filteredModel) predictRaw(full []float64) float64 {
	scratchp := arena.Floats(2 * len(full))
	v := fm.predictRawScratch(full, *scratchp)
	arena.PutFloats(scratchp)
	return v
}

// predictRawScratch is predictRaw with caller-provided scratch of length
// >= 2*len(full), covering the MIC remap buffer and the model's
// standardization buffer. The prediction hot path carves one arena buffer
// per configuration and threads it here, so evaluating a full model family
// costs a single pool round-trip.
func (fm *filteredModel) predictRawScratch(full, scratch []float64) float64 {
	if fm.lo != nil && fm.hi != nil {
		// The split always routes on the raw feature vector, expansion or
		// not: splitFeat was chosen by MIC over the raw inputs.
		if full[fm.splitFeat] <= fm.splitVal {
			return fm.lo.predictRawScratch(full, scratch)
		}
		return fm.hi.predictRawScratch(full, scratch)
	}
	if fm.expandN > 0 {
		// Space-expanded model: the derived vector and its own gather +
		// standardization scratch are carved from one arena buffer — the
		// caller's scratch was sized for the raw width.
		se := poly.SpaceExpansion{NRaw: fm.expandN}
		nd := se.Dim()
		bufp := arena.Floats(3 * nd)
		buf := *bufp
		derived := se.ExpandInto(buf[:0:nd], full)
		v := fm.leafPredict(derived, buf[nd:])
		arena.PutFloats(bufp)
		return v
	}
	return fm.leafPredict(full, scratch)
}

// leafPredict applies the keep mask and evaluates the fitted model on a
// feature vector already in the model's input space (raw, or derived
// when expandN > 0). scratch must hold 2*len(x) floats.
func (fm *filteredModel) leafPredict(x, scratch []float64) float64 {
	if len(fm.keep) != len(x) {
		sel := scratch[:len(fm.keep)]
		scratch = scratch[len(fm.keep):]
		for i, j := range fm.keep {
			sel[i] = x[j]
		}
		x = sel
	}
	return fm.model.PredictScratch(x, scratch)
}

// fromRaw maps a value on the model's training scale back to the natural
// scale.
func (fm *filteredModel) fromRaw(v float64) float64 { return fm.scale.from(v) }

// PhaseModel holds every model OPPROX builds for one execution phase of
// one control-flow class (paper §3.6).
type PhaseModel struct {
	Phase int
	// localSpeedup[b] and localDeg[b] model the effect of approximating
	// only block b in this phase: features [params..., level].
	localSpeedup []*filteredModel
	localDeg     []*filteredModel
	// iter estimates the outer-loop iteration count:
	// features [params..., levels...].
	iter *filteredModel
	// globalSpeedup and globalDeg combine the local predictions:
	// features [localPred_1..M, iterEstimate?].
	globalSpeedup *filteredModel
	globalDeg     *filteredModel
	// Confidence bands from out-of-fold residuals of the global models,
	// expressed on the models' (log) training scale and conditioned on the
	// predicted value (banded).
	SpeedupCI conf.Banded
	DegCI     conf.Banded
	// ROI is the phase's mean speedup-per-degradation (paper Eq. 1).
	ROI float64
	// R2 scores of the global models on their training data (reported in
	// the paper's Fig. 12/13 discussion).
	SpeedupR2 float64
	DegR2     float64
}

// ClassModels is the per-control-flow-class model set (paper §3.4: one
// model family per distinct control flow).
type ClassModels struct {
	CtxSig string
	Phase  []*PhaseModel
}

// Trained is the result of OPPROX's offline training.
type Trained struct {
	Opts   Options
	Phases int
	Specs  []apps.ParamSpec
	Blocks []approx.Block
	// ControlFlow predicts the control-flow class from input parameters
	// (nil when every training input took the same path).
	ControlFlow *tree.Classifier
	Classes     map[string]*ClassModels
	// Records is the full training set (kept for ROI, experiments, and
	// model evaluation).
	Records []Record
	// TrainTime is the wall-clock duration of Train.
	TrainTime time.Duration

	// calib holds optional canary-input calibration shifts (see
	// CalibrateCanary); nil when the models are used as trained.
	calib *canaryShift

	// library holds the Pareto-front plan library (DESIGN.md §14) that
	// Optimize builds every ladder from: per (class, phase) the
	// configurations that survive dominance pruning over the anchor
	// parameter vectors. Built by FitRecords, imported by LoadTrained
	// from the persisted survivor sets, and kept current by every
	// calibration setter and RetrainGlobal.
	library *planLibrary
}

// Train runs OPPROX's offline pipeline for an application: phase search,
// sampling, control-flow classification, and model fitting.
func Train(runner *apps.Runner, opts Options) (*Trained, error) {
	stop := obs.Timer("core.train.duration")
	if err := opts.validate(); err != nil {
		return nil, err
	}
	app := runner.App
	rng := rand.New(rand.NewSource(opts.Seed))
	combos := ParamCombos(app.Params(), opts.MaxParamCombos, rng)
	if len(combos) == 0 {
		return nil, errors.New("core: application declares no parameters")
	}

	phases := opts.Phases
	if phases == 0 {
		var err error
		phases, err = FindPhaseGranularity(runner, apps.DefaultParams(app), opts.PhaseThreshold, opts.MaxPhases, rng)
		if err != nil {
			return nil, fmt.Errorf("phase search: %w", err)
		}
	}

	s := &sampler{runner: runner, rng: rng, workers: opts.Parallelism}
	records, err := s.collectAll(combos, phases, opts.JointSamplesPerPhase)
	if err != nil {
		return nil, err
	}
	t, err := FitRecords(app, phases, records, opts, rng)
	if err != nil {
		return nil, err
	}
	t.TrainTime = stop()
	obs.Inc("core.train.runs")
	obs.LogEvent("core.train", "%s: %d phases, %d records in %s", app.Name(), phases, len(records), t.TrainTime.Round(time.Millisecond))
	return t, nil
}

// FitRecords builds the model families from pre-collected training
// records, without sampling. Train uses it after sampling; experiments use
// it directly for held-out model evaluation.
func FitRecords(app apps.App, phases int, records []Record, opts Options, rng *rand.Rand) (*Trained, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if rng == nil {
		rng = rand.New(rand.NewSource(opts.Seed))
	}
	t := &Trained{
		Opts:    opts,
		Phases:  phases,
		Specs:   app.Params(),
		Blocks:  app.Blocks(),
		Classes: make(map[string]*ClassModels),
		Records: records,
	}

	// Control-flow classifier (paper §3.4): predict the AB sequence from
	// the input parameters.
	classes := map[string][]Record{}
	for _, r := range records {
		classes[r.CtxSig] = append(classes[r.CtxSig], r)
	}
	if len(classes) > 1 {
		var xs [][]float64
		var labels []string
		for _, r := range records {
			xs = append(xs, r.ParamVec)
			labels = append(labels, r.CtxSig)
		}
		clf, err := tree.Fit(xs, labels, tree.Options{MinLeafSize: 2})
		if err != nil {
			return nil, fmt.Errorf("control-flow tree: %w", err)
		}
		t.ControlFlow = clf
	}

	// Per-class models, plus a pooled fallback when there are multiple
	// classes. Classes are fitted in sorted-signature order: fitting
	// consumes the shared rng, so map-iteration order would make the
	// models differ from run to run whenever an app has more than one
	// control-flow class.
	for _, sig := range sortedClassKeys(classes) {
		cm, err := t.fitClass(sig, classes[sig], rng)
		if err != nil {
			return nil, fmt.Errorf("class %q: %w", sig, err)
		}
		t.Classes[sig] = cm
	}
	if len(classes) > 1 {
		cm, err := t.fitClass(pooledClass, records, rng)
		if err != nil {
			return nil, fmt.Errorf("pooled class: %w", err)
		}
		t.Classes[pooledClass] = cm
	}
	if err := t.buildFrontLibrary(); err != nil {
		return nil, fmt.Errorf("front library: %w", err)
	}
	return t, nil
}

// sortedClassKeys returns the control-flow signatures in sorted order.
func sortedClassKeys(classes map[string][]Record) []string {
	keys := make([]string, 0, len(classes))
	for sig := range classes {
		keys = append(keys, sig)
	}
	sort.Strings(keys)
	return keys
}

// fitClass builds the per-phase model family for one control-flow class.
func (t *Trained) fitClass(sig string, recs []Record, rng *rand.Rand) (*ClassModels, error) {
	cm := &ClassModels{CtxSig: sig, Phase: make([]*PhaseModel, t.Phases)}
	for ph := 0; ph < t.Phases; ph++ {
		var phaseRecs []Record
		for _, r := range recs {
			if r.Phase == ph {
				phaseRecs = append(phaseRecs, r)
			}
		}
		pm, err := t.fitPhase(ph, phaseRecs, rng)
		if err != nil {
			return nil, fmt.Errorf("phase %d: %w", ph, err)
		}
		cm.Phase[ph] = pm
	}
	return cm, nil
}

func (t *Trained) fitPhase(ph int, recs []Record, rng *rand.Rand) (*PhaseModel, error) {
	if len(recs) == 0 {
		return nil, errors.New("no training records")
	}
	// Settings whose output is unusable are excluded from model fitting
	// and ROI, mirroring the paper's sensitivity profiling, which filters
	// out blocks/settings with unacceptable-quality output (§3.1). They
	// stay in Records for the characterization figures.
	usable := recs[:0:0]
	for _, r := range recs {
		if r.Degradation <= t.Opts.UsableDegradation {
			usable = append(usable, r)
		}
	}
	if len(usable) >= len(recs)/4 && len(usable) > 0 {
		recs = usable
	}
	nb := len(t.Blocks)
	pm := &PhaseModel{
		Phase:        ph,
		localSpeedup: make([]*filteredModel, nb),
		localDeg:     make([]*filteredModel, nb),
	}

	// Step 1: local models from the exhaustive single-block sweeps
	// (paper §3.6 "the first step builds local models").
	for b := 0; b < nb; b++ {
		var xs [][]float64
		var spd, deg []float64
		for _, r := range recs {
			if !singleBlock(r.Levels, b) {
				continue
			}
			xs = append(xs, append(append([]float64{}, r.ParamVec...), float64(r.Levels[b])))
			spd = append(spd, r.Speedup)
			deg = append(deg, r.Degradation)
		}
		var err error
		if pm.localSpeedup[b], err = t.fitTarget(xs, spd, scaleLog, rng); err != nil {
			return nil, fmt.Errorf("local speedup block %d: %w", b, err)
		}
		if pm.localDeg[b], err = t.fitTarget(xs, deg, scaleLog1p, rng); err != nil {
			return nil, fmt.Errorf("local degradation block %d: %w", b, err)
		}
	}

	// Iteration-count estimator over all records of the phase
	// (paper §3.6 "estimating iteration counts").
	var iterXs [][]float64
	var iterYs []float64
	for _, r := range recs {
		iterXs = append(iterXs, t.rawFeatures(r.ParamVec, r.Levels))
		iterYs = append(iterYs, float64(r.Iters))
	}
	var err error
	if pm.iter, err = t.fitTarget(iterXs, iterYs, scaleLinear, rng); err != nil {
		return nil, fmt.Errorf("iteration model: %w", err)
	}

	// Step 2: global models over the local predictions (+ the iteration
	// estimate as an explicit feature).
	var gSpdXs, gDegXs [][]float64
	var gSpd, gDeg []float64
	for _, r := range recs {
		sf, df := pm.globalFeatures(t, r.ParamVec, r.Levels)
		gSpdXs = append(gSpdXs, sf)
		gDegXs = append(gDegXs, df)
		gSpd = append(gSpd, r.Speedup)
		gDeg = append(gDeg, r.Degradation)
	}
	if pm.globalSpeedup, err = t.fitTarget(gSpdXs, gSpd, scaleLog, rng); err != nil {
		return nil, fmt.Errorf("global speedup: %w", err)
	}
	if pm.globalDeg, err = t.fitTarget(gDegXs, gDeg, scaleLog1p, rng); err != nil {
		return nil, fmt.Errorf("global degradation: %w", err)
	}
	pm.SpeedupR2 = pm.globalSpeedup.trainR2
	pm.DegR2 = pm.globalDeg.trainR2

	// Confidence intervals from out-of-fold residuals (paper §3.6).
	pm.SpeedupCI, err = t.confFromResiduals(gSpdXs, gSpd, pm.globalSpeedup, rng)
	if err != nil {
		return nil, fmt.Errorf("speedup CI: %w", err)
	}
	pm.DegCI, err = t.confFromResiduals(gDegXs, gDeg, pm.globalDeg, rng)
	if err != nil {
		return nil, fmt.Errorf("degradation CI: %w", err)
	}

	// ROI (paper Eq. 1). Degradations below degFloor count as degFloor so
	// a lucky zero-error sample does not produce an infinite ROI.
	const degFloor = 0.25
	sum := 0.0
	n := 0
	for _, r := range recs {
		if r.Levels.IsAccurate() {
			continue
		}
		sum += r.Speedup / math.Max(r.Degradation, degFloor)
		n++
	}
	if n > 0 {
		pm.ROI = sum / float64(n)
	}
	return pm, nil
}

// fitTarget runs MIC feature filtering then the auto-degree polynomial
// fit, on the requested target scale.
func (t *Trained) fitTarget(xs [][]float64, ys []float64, scale targetScale, rng *rand.Rand) (*filteredModel, error) {
	if len(xs) == 0 {
		return nil, errors.New("no samples")
	}
	stop := obs.Timer("core.fit.duration")
	defer func() {
		obs.Inc("core.fit.models")
		stop()
	}()
	if scale != scaleLinear {
		ly := make([]float64, len(ys))
		for i, y := range ys {
			ly[i] = scale.to(y)
		}
		ys = ly
	}
	fm, achieved, err := t.fitLeaf(xs, ys, rng)
	if err != nil {
		return nil, err
	}
	fm.scale = scale
	if !achieved {
		// Paper §3.7: if the model cannot reach the target accuracy over
		// the whole set, split the inputs into magnitude-ordered halves on
		// the most informative feature and fit a model per half. Keep the
		// split only when it actually improves the training fit.
		if split := t.trySplit(xs, ys, scale, rng); split != nil {
			if r2 := splitR2(split, xs, ys); r2 > fm.trainR2 {
				split.trainR2 = r2
				return split, nil
			}
		}
	}
	return fm, nil
}

// fitLeaf runs the optional space expansion, MIC feature filtering, and
// the auto-degree polynomial fit on already-transformed targets. It is
// the shared leaf of fitTarget and fitHalf; the caller stamps the target
// scale and handles the split fallback. trySplit always receives the RAW
// rows — split routing happens before expansion in predictRawScratch.
func (t *Trained) fitLeaf(xs [][]float64, ys []float64, rng *rand.Rand) (*filteredModel, bool, error) {
	expandN := 0
	if t.Opts.ExpandFeatures {
		se := poly.SpaceExpansion{NRaw: len(xs[0])}
		// Widen only when the sample budget can support the derived basis;
		// tiny local sweeps keep the raw features.
		if len(xs) >= 2*(se.Dim()+1) {
			expandN = len(xs[0])
			xs = se.ExpandRows(xs)
		}
	}
	keep := make([]int, len(xs[0]))
	for i := range keep {
		keep[i] = i
	}
	if t.Opts.UseMIC && len(xs) >= 4 {
		k, _, err := mic.FilterFeaturesTop(xs, ys, t.Opts.MICThreshold, expandedKeepCap(expandN))
		if err == nil && len(k) > 0 {
			keep = k
		}
	}
	sel := xs
	if len(keep) != len(xs[0]) {
		sel = make([][]float64, len(xs))
		for i, x := range xs {
			row := make([]float64, len(keep))
			for j, idx := range keep {
				row[j] = x[idx]
			}
			sel[i] = row
		}
	}
	folds := t.Opts.Folds
	if folds > len(sel) {
		folds = len(sel) / 2
	}
	if folds < 2 {
		return nil, false, fmt.Errorf("%d samples are too few to cross-validate", len(sel))
	}
	res, err := poly.AutoFit(sel, ys, t.Opts.TargetR2, t.Opts.MaxPolyDegree, folds, rng)
	if err != nil {
		return nil, false, err
	}
	fm := &filteredModel{model: res.Model, keep: keep, expandN: expandN, degree: res.Degree, cvScore: res.CVScore, trainR2: res.Model.TrainR2}
	return fm, res.Achieved, nil
}

// expandedKeepCap returns the MIC keep cap: unlimited for the raw basis
// (preserving the pre-expansion behavior bit for bit), maxExpandedKeep for
// a space-expanded one.
func expandedKeepCap(expandN int) int {
	if expandN > 0 {
		return maxExpandedKeep
	}
	return 0
}

// trySplit builds a depth-1 sub-model split on the feature with the
// highest MIC against the (already transformed) target. Returns nil when a
// split is infeasible.
func (t *Trained) trySplit(xs [][]float64, ys []float64, scale targetScale, rng *rand.Rand) *filteredModel {
	const minHalf = 30
	if len(xs) < 2*minHalf {
		return nil
	}
	_, scores, err := mic.FilterFeatures(xs, ys, 0)
	if err != nil {
		return nil
	}
	feat, best := -1, 0.0
	for j, sc := range scores {
		if sc > best {
			best, feat = sc, j
		}
	}
	if feat < 0 {
		return nil
	}
	// Median split on the chosen feature.
	vals := make([]float64, len(xs))
	for i, x := range xs {
		vals[i] = x[feat]
	}
	sort.Float64s(vals)
	median := vals[len(vals)/2]
	var loX, hiX [][]float64
	var loY, hiY []float64
	for i, x := range xs {
		if x[feat] <= median {
			loX = append(loX, x)
			loY = append(loY, ys[i])
		} else {
			hiX = append(hiX, x)
			hiY = append(hiY, ys[i])
		}
	}
	if len(loX) < minHalf || len(hiX) < minHalf {
		return nil
	}
	// Fit the halves without further recursion: fitHalf never re-splits.
	lo, err := t.fitHalf(loX, loY, scale, rng)
	if err != nil {
		return nil
	}
	hi, err := t.fitHalf(hiX, hiY, scale, rng)
	if err != nil {
		return nil
	}
	return &filteredModel{scale: scale, splitFeat: feat, splitVal: median, lo: lo, hi: hi}
}

// fitHalf is fitTarget without the split fallback (so splits never nest).
// trySplit hands it the already-transformed ys, so the fit runs directly
// on them and the real scale is stamped afterward for fromRaw symmetry.
func (t *Trained) fitHalf(xs [][]float64, ys []float64, scale targetScale, rng *rand.Rand) (*filteredModel, error) {
	fm, _, err := t.fitLeaf(xs, ys, rng)
	if err != nil {
		return nil, err
	}
	fm.scale = scale
	return fm, nil
}

// splitR2 scores a split model's routed predictions on its training data
// (both on the transformed scale).
func splitR2(fm *filteredModel, xs [][]float64, ys []float64) float64 {
	preds := make([]float64, len(xs))
	for i, x := range xs {
		preds[i] = fm.predictRaw(x)
	}
	return poly.R2(ys, preds)
}

// confFromResiduals builds the p-level banded confidence interval for a
// fitted model using out-of-fold residuals at the model's chosen degree,
// conditioned on the predicted value.
func (t *Trained) confFromResiduals(xs [][]float64, ys []float64, fm *filteredModel, rng *rand.Rand) (conf.Banded, error) {
	if fm.scale != scaleLinear {
		ty := make([]float64, len(ys))
		for i, y := range ys {
			ty[i] = fm.scale.to(y)
		}
		ys = ty
	}
	if fm.lo != nil && fm.hi != nil {
		// Split models: band their routed training residuals. (The halves
		// were accepted precisely because this fit is tighter than the
		// single model's, so these residuals are the honest basis.)
		preds := make([]float64, len(xs))
		residuals := make([]float64, len(xs))
		for i, x := range xs {
			preds[i] = fm.predictRaw(x)
			residuals[i] = ys[i] - preds[i]
		}
		return conf.BandedFromResiduals(preds, residuals, t.Opts.ConfidenceP, 4)
	}
	if fm.expandN > 0 {
		// The keep mask indexes the space-expanded basis, so the residual
		// refit must see the same derived rows the model was trained on.
		xs = poly.SpaceExpansion{NRaw: fm.expandN}.ExpandRows(xs)
	}
	sel := xs
	if len(xs) > 0 && len(fm.keep) != len(xs[0]) {
		sel = make([][]float64, len(xs))
		for i, x := range xs {
			row := make([]float64, len(fm.keep))
			for j, idx := range fm.keep {
				row[j] = x[idx]
			}
			sel[i] = row
		}
	}
	folds := t.Opts.Folds
	if folds > len(sel) {
		folds = len(sel) / 2
	}
	residuals, err := poly.OutOfFoldResiduals(sel, ys, fm.degree, folds, rng)
	if err != nil {
		// Fall back to training residuals when folds are infeasible.
		residuals = fm.model.Residuals(sel, ys)
	}
	preds := make([]float64, len(sel))
	fm.model.PredictInto(preds, sel)
	return conf.BandedFromResiduals(preds, residuals, t.Opts.ConfidenceP, 4)
}

// rawFeatures builds the iteration model's feature vector.
func (t *Trained) rawFeatures(paramVec []float64, cfg approx.Config) []float64 {
	return t.rawFeaturesInto(make([]float64, 0, len(paramVec)+len(cfg)), paramVec, cfg)
}

// rawFeaturesInto appends the iteration model's feature vector to dst
// (normally dst[:0] of a reused buffer).
func (t *Trained) rawFeaturesInto(dst, paramVec []float64, cfg approx.Config) []float64 {
	dst = append(dst, paramVec...)
	for _, l := range cfg {
		dst = append(dst, float64(l))
	}
	return dst
}

// rawPredict evaluates the two global models for one configuration in
// this phase on their (log) training scales, with the canary-calibration
// shift applied but no confidence band and no clamping. predictConfig
// builds on it for the optimizer; Trained.DiagnosePhase exposes it to the
// serving feedback loop, whose drift detector compares realized values
// against the same raw predictions the confidence bands are keyed on.
func (pm *PhaseModel) rawPredict(t *Trained, paramVec []float64, cfg approx.Config) (sRaw, dRaw float64) {
	// Optimizer hot path: every scratch vector — both global feature rows,
	// the per-block local-model input, and the iteration features — is
	// carved from one arena buffer. Nothing below retains them.
	np := len(paramVec)
	w := len(t.Blocks) + 1
	prsLen := 2 * max(w, np+1, np+len(cfg))
	scratchp := arena.Floats(2*w + np + 1 + np + len(cfg) + prsLen)
	defer arena.PutFloats(scratchp)
	buf := *scratchp
	prs := buf[len(buf)-prsLen:]
	sf, df := pm.globalFeaturesInto(t, paramVec, cfg,
		buf[0:0:w], buf[w:w:2*w],
		buf[2*w:2*w:2*w+np+1], buf[2*w+np+1:2*w+np+1:len(buf)-prsLen], prs)
	sRaw = pm.globalSpeedup.predictRawScratch(sf, prs)
	dRaw = pm.globalDeg.predictRawScratch(df, prs)
	if t.calib != nil && pm.Phase < len(t.calib.spd) {
		// Canary calibration: per-phase log-scale bias correction.
		sRaw += t.calib.spd[pm.Phase]
		dRaw += t.calib.deg[pm.Phase]
	}
	return sRaw, dRaw
}

// predictConfig predicts (speedup, degradation) for one configuration in
// this phase. The confidence band is applied on the models' log scale —
// pessimistic edge in both cases (paper §3.6).
func (pm *PhaseModel) predictConfig(t *Trained, paramVec []float64, cfg approx.Config, conservative bool) (speedup, deg float64) {
	sRaw, dRaw := pm.rawPredict(t, paramVec, cfg)
	if conservative {
		sRaw = pm.SpeedupCI.Lower(sRaw)
		dRaw = pm.DegCI.Upper(dRaw)
	}
	// Clamp to the physically plausible envelope: measured degradations
	// are capped at apps.MaxDegradation and no setting changes work by
	// more than ~50x, so predictions outside that range are extrapolation
	// artifacts, not information.
	speedup = clampF(pm.globalSpeedup.fromRaw(sRaw), 0.02, 50)
	deg = clampF(pm.globalDeg.fromRaw(dRaw), 0, apps.MaxDegradation)
	return speedup, deg
}

func clampF(v, lo, hi float64) float64 {
	return math.Max(lo, math.Min(hi, v))
}

// globalFeatures assembles the feature vectors of the two global models
// for one (params, config) point: the per-block local predictions plus
// (optionally) the iteration estimate.
func (pm *PhaseModel) globalFeatures(t *Trained, paramVec []float64, cfg approx.Config) (speedupF, degF []float64) {
	nb := len(t.Blocks)
	np := len(paramVec)
	// Fresh slices: the training path retains the returned rows in its
	// design matrices, so they must not come from the arena.
	return pm.globalFeaturesInto(t, paramVec, cfg,
		make([]float64, 0, nb+1), make([]float64, 0, nb+1),
		make([]float64, 0, np+1), make([]float64, 0, np+len(cfg)),
		make([]float64, 2*max(nb+1, np+1, np+len(cfg))))
}

// globalFeaturesInto is globalFeatures with caller-provided storage:
// sfBuf/dfBuf receive the two feature rows, lxBuf holds the local models'
// input, rawBuf the iteration model's (all appended from length 0), and
// prs is the per-prediction scratch for predictRawScratch. The prediction
// hot path passes arena buffers; values are identical to globalFeatures'.
func (pm *PhaseModel) globalFeaturesInto(t *Trained, paramVec []float64, cfg approx.Config, sfBuf, dfBuf, lxBuf, rawBuf, prs []float64) (speedupF, degF []float64) {
	nb := len(t.Blocks)
	speedupF, degF = sfBuf, dfBuf
	// Local predictions feed the global models on their log training
	// scale: bounded, smooth features that compose additively.
	lx := append(lxBuf, paramVec...)
	lx = append(lx, 0)
	for b := 0; b < nb; b++ {
		lx[len(paramVec)] = float64(cfg[b])
		speedupF = append(speedupF, pm.localSpeedup[b].predictRawScratch(lx, prs))
		degF = append(degF, pm.localDeg[b].predictRawScratch(lx, prs))
	}
	if t.Opts.UseIterFeature {
		raw := t.rawFeaturesInto(rawBuf, paramVec, cfg)
		iterEst := pm.iter.fromRaw(pm.iter.predictRawScratch(raw, prs))
		speedupF = append(speedupF, iterEst)
		degF = append(degF, iterEst)
	}
	return speedupF, degF
}

// singleBlock reports whether cfg approximates only block b (or nothing).
func singleBlock(cfg approx.Config, b int) bool {
	for i, l := range cfg {
		if i != b && l != 0 {
			return false
		}
	}
	return true
}

// classFor returns the model family for the given input parameters,
// falling back to the pooled class when the control-flow prediction has no
// dedicated models.
func (t *Trained) classFor(paramVec []float64) (*ClassModels, error) {
	if t.ControlFlow == nil {
		for _, cm := range t.Classes {
			return cm, nil
		}
		return nil, errors.New("core: no trained classes")
	}
	sig, err := t.ControlFlow.Predict(paramVec)
	if err != nil {
		return nil, err
	}
	if cm, ok := t.Classes[sig]; ok {
		return cm, nil
	}
	if cm, ok := t.Classes[pooledClass]; ok {
		return cm, nil
	}
	return nil, fmt.Errorf("core: no models for control flow %q", sig)
}

// PredictPhase predicts the application-level speedup and QoS degradation
// of approximating one phase with cfg, on the given input. When
// conservative is true the confidence band is applied pessimistically
// (paper §3.6): lower bound for speedup, upper for degradation.
func (t *Trained) PredictPhase(p apps.Params, phase int, cfg approx.Config, conservative bool) (speedup, deg float64, err error) {
	if err := cfg.Validate(t.Blocks); err != nil {
		return 0, 0, err
	}
	if phase < 0 || phase >= t.Phases {
		return 0, 0, fmt.Errorf("core: phase %d out of range [0,%d)", phase, t.Phases)
	}
	pv := p.Vector(t.Specs)
	cm, err := t.classFor(pv)
	if err != nil {
		return 0, 0, err
	}
	pm := cm.Phase[phase]
	speedup, deg = pm.predictConfig(t, pv, cfg, conservative)
	return speedup, deg, nil
}

// PhaseROI returns the trained ROI of each phase for the model family the
// given input maps to.
func (t *Trained) PhaseROI(p apps.Params) ([]float64, error) {
	cm, err := t.classFor(p.Vector(t.Specs))
	if err != nil {
		return nil, err
	}
	out := make([]float64, t.Phases)
	for ph, pm := range cm.Phase {
		out[ph] = pm.ROI
	}
	return out, nil
}

// ModelQuality summarizes the global-model R² scores per phase (averaged
// over classes) — the quantity the paper reports as modeling accuracy.
func (t *Trained) ModelQuality() (speedupR2, degR2 float64) {
	// Reduce in sorted class order: float addition is not associative, so
	// map-order accumulation would change the low bits run to run.
	n := 0
	for _, sig := range t.classSigs() {
		for _, pm := range t.Classes[sig].Phase {
			speedupR2 += pm.SpeedupR2
			degR2 += pm.DegR2
			n++
		}
	}
	if n == 0 {
		return math.NaN(), math.NaN()
	}
	return speedupR2 / float64(n), degR2 / float64(n)
}

// classSigs returns the trained control-flow class signatures in sorted
// order, so every per-class reduction and rendering is deterministic.
func (t *Trained) classSigs() []string {
	sigs := make([]string, 0, len(t.Classes))
	for sig := range t.Classes {
		sigs = append(sigs, sig)
	}
	sort.Strings(sigs)
	return sigs
}
