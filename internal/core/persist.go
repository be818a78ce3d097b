package core

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"opprox/internal/approx"
	"opprox/internal/apps"
	"opprox/internal/ml/conf"
	"opprox/internal/ml/poly"
	"opprox/internal/ml/tree"
)

// The paper's deployment flow (§4.2) trains once, stores the models
// ("as Python's serialized pickle format in designated locations"), and
// has a runtime script load them when a job is submitted. This file is the
// Go equivalent: a versioned JSON encoding of a Trained model set.
//
// Training records are deliberately not persisted — the runtime only needs
// the models; experiments that want records retrain.

// modelFileVersion guards against loading files written by an incompatible
// build.
const modelFileVersion = 1

type filteredDTO struct {
	Model   *poly.Model `json:"model,omitempty"`
	Keep    []int       `json:"keep,omitempty"`
	Scale   int         `json:"scale"`
	Degree  int         `json:"degree,omitempty"`
	CVScore float64     `json:"cv_score,omitempty"`
	TrainR2 float64     `json:"train_r2,omitempty"`
	// ExpandN is the raw feature count of a space-expanded model
	// (Options.ExpandFeatures); 0 means the model reads raw features.
	// Like Calibration, older builds reject files that carry it — the
	// right failure mode, since ignoring it would feed raw features to a
	// model fitted on the derived basis.
	ExpandN int `json:"expand_n,omitempty"`
	// Sub-model split (paper §3.7).
	SplitFeat int          `json:"split_feature,omitempty"`
	SplitVal  float64      `json:"split_value,omitempty"`
	Lo        *filteredDTO `json:"lo,omitempty"`
	Hi        *filteredDTO `json:"hi,omitempty"`
}

func exportFiltered(fm *filteredModel) filteredDTO {
	d := filteredDTO{Model: fm.model, Keep: fm.keep, Scale: int(fm.scale), Degree: fm.degree, CVScore: fm.cvScore, TrainR2: fm.trainR2, ExpandN: fm.expandN}
	if fm.lo != nil && fm.hi != nil {
		d.SplitFeat = fm.splitFeat
		d.SplitVal = fm.splitVal
		lo := exportFiltered(fm.lo)
		hi := exportFiltered(fm.hi)
		d.Lo, d.Hi = &lo, &hi
	}
	return d
}

// importFiltered rebuilds a model whose input rows are width features
// wide, rejecting anything its prediction paths would index out of
// range or evaluate wrongly: a split feature past the row, a polynomial
// that fails poly.Model.Validate, a space expansion of another width, or
// a keep mask that does not map the row onto the polynomial's features.
func importFiltered(d filteredDTO, width int) (*filteredModel, error) {
	if d.Scale < int(scaleLinear) || d.Scale > int(scaleLog1p) {
		return nil, fmt.Errorf("core: unknown target scale %d", d.Scale)
	}
	if d.Lo != nil || d.Hi != nil {
		if d.Lo == nil || d.Hi == nil {
			return nil, fmt.Errorf("core: split model missing a half")
		}
		if d.SplitFeat < 0 || d.SplitFeat >= width {
			return nil, fmt.Errorf("core: split on feature %d of %d", d.SplitFeat, width)
		}
		lo, err := importFiltered(*d.Lo, width)
		if err != nil {
			return nil, err
		}
		hi, err := importFiltered(*d.Hi, width)
		if err != nil {
			return nil, err
		}
		return &filteredModel{
			scale:     targetScale(d.Scale),
			trainR2:   d.TrainR2,
			splitFeat: d.SplitFeat,
			splitVal:  d.SplitVal,
			lo:        lo,
			hi:        hi,
		}, nil
	}
	if d.Model == nil {
		return nil, fmt.Errorf("core: model file is missing a polynomial model")
	}
	if err := d.Model.Validate(); err != nil {
		return nil, fmt.Errorf("core: model file polynomial: %w", err)
	}
	if d.ExpandN != 0 {
		if d.ExpandN != width {
			return nil, fmt.Errorf("core: space expansion of %d features for rows of %d", d.ExpandN, width)
		}
		width = poly.SpaceExpansion{NRaw: width}.Dim()
	}
	if nf := d.Model.Expansion.NFeatures; len(d.Keep) != nf {
		return nil, fmt.Errorf("core: keep mask of %d features for a polynomial over %d", len(d.Keep), nf)
	}
	for _, j := range d.Keep {
		if j < 0 || j >= width {
			return nil, fmt.Errorf("core: keep index %d outside rows of %d features", j, width)
		}
	}
	return &filteredModel{
		model:   d.Model,
		keep:    d.Keep,
		scale:   targetScale(d.Scale),
		degree:  d.Degree,
		cvScore: d.CVScore,
		trainR2: d.TrainR2,
		expandN: d.ExpandN,
	}, nil
}

type phaseDTO struct {
	Phase         int           `json:"phase"`
	LocalSpeedup  []filteredDTO `json:"local_speedup"`
	LocalDeg      []filteredDTO `json:"local_degradation"`
	Iter          filteredDTO   `json:"iterations"`
	GlobalSpeedup filteredDTO   `json:"global_speedup"`
	GlobalDeg     filteredDTO   `json:"global_degradation"`
	SpeedupCI     conf.Banded   `json:"speedup_ci"`
	DegCI         conf.Banded   `json:"degradation_ci"`
	ROI           float64       `json:"roi"`
	SpeedupR2     float64       `json:"speedup_r2"`
	DegR2         float64       `json:"degradation_r2"`
}

type classDTO struct {
	CtxSig string     `json:"ctx_sig"`
	Phase  []phaseDTO `json:"phases"`
}

// calibDTO persists the optional canary/feedback calibration shifts.
// Older builds reject files that carry it (DisallowUnknownFields), which
// is the correct failure mode: silently dropping a correction would serve
// the uncalibrated predictions under a calibrated model's name.
type calibDTO struct {
	Speedup     []float64 `json:"speedup"`
	Degradation []float64 `json:"degradation"`
}

// libraryDTO persists the Pareto-front plan library's survivor sets
// (DESIGN.md §14): per class, per phase, the front bitset over the
// non-accurate configuration space (base64 in JSON). Survivors are
// identified by enumeration index rather than level vector, which keeps
// the encoding compact and makes corruption detectable: the bitset must
// be exactly as long as the block descriptors' enumeration needs, with
// no survivor past its end.
type libraryDTO struct {
	// Anchors names the anchor rule the survivors were pruned under
	// (anchorRule). Files without it, or with another rule, carry fronts
	// that are not exact at the current anchors; LoadTrained rebuilds
	// those instead of importing them.
	Anchors string `json:"anchors,omitempty"`
	// Classes maps control-flow signature to per-phase fronts.
	Classes map[string][]front `json:"classes"`
}

// fileOptions is Options as a model file carries it. Files written
// while the front library was opt-in also carry its switch, which is
// accepted and ignored: every model now has a library.
type fileOptions struct {
	Options
	FrontLibrary bool `json:",omitempty"`
}

type modelFile struct {
	Version     int                 `json:"version"`
	Opts        fileOptions         `json:"options"`
	Phases      int                 `json:"phases"`
	Specs       []apps.ParamSpec    `json:"params"`
	Blocks      []approx.Block      `json:"blocks"`
	ControlFlow *tree.ClassifierDTO `json:"control_flow,omitempty"`
	Classes     map[string]classDTO `json:"classes"`
	Calibration *calibDTO           `json:"calibration,omitempty"`
	// Library carries the front library's survivor sets; like
	// Calibration, older builds reject files that include it.
	Library *libraryDTO `json:"front_library,omitempty"`
}

// Save writes the trained models as versioned JSON. Training records are
// not included.
func (t *Trained) Save(w io.Writer) error {
	mf := modelFile{
		Version: modelFileVersion,
		Opts:    fileOptions{Options: t.Opts},
		Phases:  t.Phases,
		Specs:   t.Specs,
		Blocks:  t.Blocks,
		Classes: make(map[string]classDTO, len(t.Classes)),
	}
	if t.ControlFlow != nil {
		mf.ControlFlow = t.ControlFlow.Export()
	}
	if t.calib != nil {
		mf.Calibration = &calibDTO{
			Speedup:     append([]float64(nil), t.calib.spd...),
			Degradation: append([]float64(nil), t.calib.deg...),
		}
	}
	if t.library != nil {
		mf.Library = &libraryDTO{Anchors: anchorRule, Classes: t.library.classes}
	}
	for sig, cm := range t.Classes {
		cd := classDTO{CtxSig: cm.CtxSig}
		for _, pm := range cm.Phase {
			pd := phaseDTO{
				Phase:         pm.Phase,
				Iter:          exportFiltered(pm.iter),
				GlobalSpeedup: exportFiltered(pm.globalSpeedup),
				GlobalDeg:     exportFiltered(pm.globalDeg),
				SpeedupCI:     pm.SpeedupCI,
				DegCI:         pm.DegCI,
				ROI:           pm.ROI,
				SpeedupR2:     pm.SpeedupR2,
				DegR2:         pm.DegR2,
			}
			for _, fm := range pm.localSpeedup {
				pd.LocalSpeedup = append(pd.LocalSpeedup, exportFiltered(fm))
			}
			for _, fm := range pm.localDeg {
				pd.LocalDeg = append(pd.LocalDeg, exportFiltered(fm))
			}
			cd.Phase = append(cd.Phase, pd)
		}
		mf.Classes[sig] = cd
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(mf)
}

// LoadTrained reads a model set previously written by Save. The result
// supports PredictPhase, PhaseROI and Optimize; the Records field is
// empty.
func LoadTrained(r io.Reader) (*Trained, error) {
	var mf modelFile
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&mf); err != nil {
		return nil, fmt.Errorf("core: decoding model file: %w", err)
	}
	if mf.Version != modelFileVersion {
		return nil, fmt.Errorf("core: model file version %d, this build reads %d", mf.Version, modelFileVersion)
	}
	if mf.Phases < 1 || len(mf.Blocks) == 0 || len(mf.Classes) == 0 {
		return nil, fmt.Errorf("core: model file is incomplete (phases=%d blocks=%d classes=%d)",
			mf.Phases, len(mf.Blocks), len(mf.Classes))
	}
	t := &Trained{
		Opts:    mf.Opts.Options,
		Phases:  mf.Phases,
		Specs:   mf.Specs,
		Blocks:  mf.Blocks,
		Classes: make(map[string]*ClassModels, len(mf.Classes)),
	}
	if mf.ControlFlow != nil {
		clf, err := tree.FromDTO(mf.ControlFlow)
		if err != nil {
			return nil, err
		}
		t.ControlFlow = clf
	}
	if mf.Calibration != nil {
		// SetCalibration validates length and finiteness, so a truncated
		// or hand-edited calibration block fails at load time.
		if err := t.SetCalibration(mf.Calibration.Speedup, mf.Calibration.Degradation); err != nil {
			return nil, fmt.Errorf("core: model file calibration: %w", err)
		}
	}
	// Validate classes in sorted order so a corrupt file reports the same
	// error no matter the map iteration order.
	sigs := make([]string, 0, len(mf.Classes))
	for sig := range mf.Classes {
		sigs = append(sigs, sig)
	}
	sort.Strings(sigs)
	for _, sig := range sigs {
		cd := mf.Classes[sig]
		cm := &ClassModels{CtxSig: cd.CtxSig}
		if len(cd.Phase) != mf.Phases {
			return nil, fmt.Errorf("core: class %q has %d phase models for %d phases", sig, len(cd.Phase), mf.Phases)
		}
		for _, pd := range cd.Phase {
			// The optimizer indexes straight into the confidence bands
			// (conf.Banded.band), so a truncated or hand-edited file with
			// empty bands or mismatched edges must be rejected here, not
			// panic later inside Optimize.
			if err := pd.SpeedupCI.Validate(); err != nil {
				return nil, fmt.Errorf("core: class %q phase %d speedup CI: %w", sig, pd.Phase, err)
			}
			if err := pd.DegCI.Validate(); err != nil {
				return nil, fmt.Errorf("core: class %q phase %d degradation CI: %w", sig, pd.Phase, err)
			}
			pm := &PhaseModel{
				Phase:     pd.Phase,
				SpeedupCI: pd.SpeedupCI,
				DegCI:     pd.DegCI,
				ROI:       pd.ROI,
				SpeedupR2: pd.SpeedupR2,
				DegR2:     pd.DegR2,
			}
			if len(pd.LocalSpeedup) != len(mf.Blocks) || len(pd.LocalDeg) != len(mf.Blocks) {
				return nil, fmt.Errorf("core: class %q phase %d has local models for %d/%d blocks, want %d",
					sig, pd.Phase, len(pd.LocalSpeedup), len(pd.LocalDeg), len(mf.Blocks))
			}
			// Input widths: a local model reads [params..., level], the
			// iteration model [params..., levels...] and the global
			// models [localPred_1..M, iterEstimate?].
			np, nb := len(mf.Specs), len(mf.Blocks)
			globalW := nb
			if mf.Opts.UseIterFeature {
				globalW++
			}
			var err error
			for _, fd := range pd.LocalSpeedup {
				fm, e := importFiltered(fd, np+1)
				if e != nil {
					return nil, e
				}
				pm.localSpeedup = append(pm.localSpeedup, fm)
			}
			for _, fd := range pd.LocalDeg {
				fm, e := importFiltered(fd, np+1)
				if e != nil {
					return nil, e
				}
				pm.localDeg = append(pm.localDeg, fm)
			}
			if pm.iter, err = importFiltered(pd.Iter, np+nb); err != nil {
				return nil, err
			}
			if pm.globalSpeedup, err = importFiltered(pd.GlobalSpeedup, globalW); err != nil {
				return nil, err
			}
			if pm.globalDeg, err = importFiltered(pd.GlobalDeg, globalW); err != nil {
				return nil, err
			}
			cm.Phase = append(cm.Phase, pm)
		}
		t.Classes[sig] = cm
	}
	if mf.Library != nil && mf.Library.Anchors == anchorRule {
		if err := t.importLibrary(mf.Library); err != nil {
			return nil, fmt.Errorf("core: model file front library: %w", err)
		}
	} else if err := t.buildFrontLibrary(); err != nil {
		return nil, fmt.Errorf("core: front library: %w", err)
	}
	return t, nil
}

// importLibrary reconstructs the Pareto-front plan library from its
// persisted fronts. Every front is validated against the size of the
// enumeration of the block descriptors in the same file, so a truncated
// or hand-edited library fails at load time instead of producing
// silently wrong plans.
func (t *Trained) importLibrary(ld *libraryDTO) error {
	if len(ld.Classes) == 0 {
		return fmt.Errorf("library block has no classes")
	}
	nspace := approx.NumConfigs(t.Blocks) - 1
	sigs := make([]string, 0, len(ld.Classes))
	for sig := range ld.Classes {
		sigs = append(sigs, sig)
	}
	sort.Strings(sigs)
	for _, sig := range sigs {
		if _, ok := t.Classes[sig]; !ok {
			return fmt.Errorf("library covers unknown class %q", sig)
		}
		phases := ld.Classes[sig]
		if len(phases) != t.Phases {
			return fmt.Errorf("library class %q has %d phases, model has %d", sig, len(phases), t.Phases)
		}
		for ph, f := range phases {
			if len(f) != (nspace+7)/8 {
				return fmt.Errorf("library class %q phase %d: front of %d bytes for a space of %d", sig, ph, len(f), nspace)
			}
			if nspace%8 != 0 && f[len(f)-1]>>(nspace%8) != 0 {
				return fmt.Errorf("library class %q phase %d: survivor past the end of a space of %d", sig, ph, nspace)
			}
		}
	}
	for _, sig := range t.classSigs() {
		if _, ok := ld.Classes[sig]; !ok {
			return fmt.Errorf("library is missing class %q", sig)
		}
	}
	// The persisted survivor sets were pruned under the calibration
	// persisted in the same file (Save runs them through the same
	// predictConfigsBatch), which LoadTrained installed before calling
	// here — record it so a later recalibration re-prunes only phases
	// whose shifts move.
	lib := &planLibrary{classes: ld.Classes}
	lib.calSpd, lib.calDeg = t.calibVectors()
	t.library = lib
	return nil
}
