package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"opprox/internal/approx"
	"opprox/internal/apps"
	"opprox/internal/obs"
)

// This file is the model half of the online retraining pipeline
// (DESIGN.md §16): refitting a trained model set's GLOBAL models from
// realized production feedback, without rerunning the offline sampling.
// The local models, iteration estimators, and control-flow classifier
// stay as trained — they encode the sensitivity structure of the
// application, which feedback (one realized outcome per served phase,
// never a single-block sweep) cannot re-estimate. What feedback can
// re-estimate, with exactly the right distribution, is the mapping from
// local predictions to realized application-level outcomes — which is
// precisely the global models' job, and where phase-behavior drift
// shows up.

// FeedbackSample is one realized phase observation joined with the
// dispatch context that produced it — the training row the telemetry
// extractor reconstructs from the feedback log.
type FeedbackSample struct {
	Params apps.Params
	Levels []int // the phase's served configuration
	Phase  int
	// Realized application-level outcomes on the natural scale.
	Speedup     float64
	Degradation float64
}

// ErrNoRefit reports that no phase group had enough feedback rows to
// refit — the retrain driver treats the candidate as infeasible.
var ErrNoRefit = errors.New("core: no phase group had enough feedback rows to refit")

// RetrainGlobal refits the global speedup/degradation models (and their
// confidence bands) from realized feedback, mutating the receiver — the
// caller clones first (LoadTrained over the live bytes) and packages
// the result as a shadow version.
//
// groups is a proposed phase segmentation: each group's phases share
// one refit (the online re-detection's claim is exactly that those
// phases now behave alike, so their rows pool). nil means every phase
// refits alone. Groups with fewer than minRows rows keep their trained
// models. Calibration shifts of refit phases are zeroed — the refit
// absorbed the drift the shifts were correcting — and the refit phases
// are re-pruned in the front library.
//
// Determinism: classes refit in sorted-signature order, groups in the
// given order, rows in the caller's order, all sharing one seeded rng —
// identical samples, groups and seed yield bit-identical models.
func (t *Trained) RetrainGlobal(samples []FeedbackSample, groups [][]int, minRows int, seed int64) ([]int, error) {
	stop := obs.Timer("core.refit.duration")
	defer stop()
	if len(samples) == 0 {
		return nil, errors.New("core: no feedback samples to refit from")
	}
	if minRows < 4 {
		// fitLeaf needs >= 4 rows for 2-fold cross-validation.
		minRows = 4
	}
	if groups == nil {
		for ph := 0; ph < t.Phases; ph++ {
			groups = append(groups, []int{ph})
		}
	}
	seen := make([]bool, t.Phases)
	for _, g := range groups {
		for _, ph := range g {
			if ph < 0 || ph >= t.Phases {
				return nil, fmt.Errorf("core: refit group phase %d out of range [0,%d)", ph, t.Phases)
			}
			if seen[ph] {
				return nil, fmt.Errorf("core: refit groups repeat phase %d", ph)
			}
			seen[ph] = true
		}
	}

	// Route every row to its control-flow class once, preserving order.
	type row struct {
		pv  []float64
		cfg approx.Config
		s   FeedbackSample
	}
	byClass := make(map[string][]row, len(t.Classes))
	for i, s := range samples {
		if s.Phase < 0 || s.Phase >= t.Phases {
			return nil, fmt.Errorf("core: feedback sample %d phase %d out of range [0,%d)", i, s.Phase, t.Phases)
		}
		cfg := approx.Config(s.Levels)
		if err := cfg.Validate(t.Blocks); err != nil {
			return nil, fmt.Errorf("core: feedback sample %d: %w", i, err)
		}
		pv := s.Params.Vector(t.Specs)
		cm, err := t.classFor(pv)
		if err != nil {
			return nil, fmt.Errorf("core: feedback sample %d: %w", i, err)
		}
		r := row{pv: pv, cfg: cfg, s: s}
		byClass[cm.CtxSig] = append(byClass[cm.CtxSig], r)
		if cm.CtxSig != pooledClass {
			// The pooled fallback was trained on all records; refit it the
			// same way.
			if _, ok := t.Classes[pooledClass]; ok {
				byClass[pooledClass] = append(byClass[pooledClass], r)
			}
		}
	}

	rng := rand.New(rand.NewSource(seed ^ 0x5e7a11))
	refit := make([]bool, t.Phases)
	refitAny := false
	for _, sig := range t.classSigs() {
		cm := t.Classes[sig]
		rows := byClass[sig]
		for _, g := range groups {
			inGroup := make([]bool, t.Phases)
			for _, ph := range g {
				inGroup[ph] = true
			}
			var xsS, xsD [][]float64
			var ysS, ysD []float64
			for _, r := range rows {
				if !inGroup[r.s.Phase] {
					continue
				}
				// Features come from the row's own phase's local models —
				// calibration-free, exactly the recipe training used.
				sf, df := cm.Phase[r.s.Phase].globalFeatures(t, r.pv, r.cfg)
				xsS = append(xsS, sf)
				xsD = append(xsD, df)
				ysS = append(ysS, r.s.Speedup)
				ysD = append(ysD, r.s.Degradation)
			}
			if len(xsS) < minRows {
				continue
			}
			gs, err := t.fitTarget(xsS, ysS, scaleLog, rng)
			if err != nil {
				return nil, fmt.Errorf("core: refit class %q speedup: %w", sig, err)
			}
			gd, err := t.fitTarget(xsD, ysD, scaleLog1p, rng)
			if err != nil {
				return nil, fmt.Errorf("core: refit class %q degradation: %w", sig, err)
			}
			sci, err := t.confFromResiduals(xsS, ysS, gs, rng)
			if err != nil {
				return nil, fmt.Errorf("core: refit class %q speedup CI: %w", sig, err)
			}
			dci, err := t.confFromResiduals(xsD, ysD, gd, rng)
			if err != nil {
				return nil, fmt.Errorf("core: refit class %q degradation CI: %w", sig, err)
			}
			for _, ph := range g {
				pm := cm.Phase[ph]
				pm.globalSpeedup = gs
				pm.globalDeg = gd
				pm.SpeedupCI = sci
				pm.DegCI = dci
				pm.SpeedupR2 = gs.trainR2
				pm.DegR2 = gd.trainR2
				refit[ph] = true
			}
			refitAny = true
		}
	}
	if !refitAny {
		return nil, ErrNoRefit
	}
	var phases []int
	for ph, ok := range refit {
		if ok {
			phases = append(phases, ph)
		}
	}
	sort.Ints(phases)

	// A refit phase's new global model absorbed whatever systematic bias
	// the calibration shift was correcting; keeping the shift would
	// double-apply it.
	if t.calib != nil {
		allZero := true
		for ph := 0; ph < t.Phases; ph++ {
			if refit[ph] {
				t.calib.spd[ph], t.calib.deg[ph] = 0, 0
			}
			if t.calib.spd[ph] != 0 || t.calib.deg[ph] != 0 {
				allZero = false
			}
		}
		if allZero {
			t.calib = nil
		}
	}
	if t.library != nil {
		if err := t.pruneFronts(t.library, phases); err != nil {
			return nil, err
		}
	}
	obs.Inc("core.refit.runs")
	return phases, nil
}
