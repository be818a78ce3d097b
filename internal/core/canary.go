package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"opprox/internal/approx"
	"opprox/internal/apps"
)

// Canary-input calibration is the extension the paper sketches in its
// related-work discussion (§6, after Laurenzano et al., PLDI'16): train
// the models on cheap, down-scaled "canary" inputs, then correct their
// systematic bias at the expensive production input with a handful of
// full-size probe runs.
//
// The correction is a per-phase additive shift on each model's log scale
// (i.e. a multiplicative correction on the natural scale): the median
// log-residual of the probe runs. A median over a few probes is robust to
// one unlucky configuration, and a log-scale shift preserves the models'
// ranking of configurations — calibration moves predictions, not the
// optimizer's ordering.

// canaryShift is the per-phase calibration state stored on Trained.
type canaryShift struct {
	spd []float64 // per-phase log-speedup shifts
	deg []float64 // per-phase log1p-degradation shifts
}

// Calibrated reports whether canary calibration has been applied.
func (t *Trained) Calibrated() bool { return t.calib != nil }

// CalibrateCanary measures probesPerPhase fresh runs of the production
// input p in every phase and installs per-phase correction shifts on the
// trained models. Call it on models trained from down-scaled canary
// inputs before optimizing for the production input.
func (t *Trained) CalibrateCanary(runner *apps.Runner, p apps.Params, probesPerPhase int, seed int64) error {
	if probesPerPhase < 1 {
		return fmt.Errorf("core: need at least 1 probe per phase, got %d", probesPerPhase)
	}
	rng := rand.New(rand.NewSource(seed ^ 0xca11ab1e))
	shift := &canaryShift{
		spd: make([]float64, t.Phases),
		deg: make([]float64, t.Phases),
	}
	// Measure against the uncalibrated models; a failed probe leaves the
	// previous calibration (which the front library matches) in place.
	prev := t.calib
	t.calib = nil
	for ph := 0; ph < t.Phases; ph++ {
		var spdRes, degRes []float64
		for k := 0; k < probesPerPhase; k++ {
			cfg := make(approx.Config, len(t.Blocks))
			nonzero := false
			for bi, b := range t.Blocks {
				cfg[bi] = rng.Intn(b.MaxLevel + 1)
				nonzero = nonzero || cfg[bi] > 0
			}
			if !nonzero {
				cfg[rng.Intn(len(cfg))] = 1
			}
			spdPred, degPred, err := t.PredictPhase(p, ph, cfg, false)
			if err != nil {
				t.calib = prev
				return err
			}
			ev, err := runner.Evaluate(p, approx.SinglePhaseSchedule(t.Phases, ph, cfg))
			if err != nil {
				t.calib = prev
				return fmt.Errorf("canary probe phase %d: %w", ph, err)
			}
			spdRes = append(spdRes, math.Log(math.Max(ev.Speedup, 1e-9))-math.Log(math.Max(spdPred, 1e-9)))
			degRes = append(degRes, math.Log1p(math.Max(ev.Degradation, 0))-math.Log1p(math.Max(degPred, 0)))
		}
		shift.spd[ph] = median(spdRes)
		shift.deg[ph] = median(degRes)
	}
	return t.installCalibration(shift)
}

// ClearCalibration removes a previously installed canary calibration.
func (t *Trained) ClearCalibration() error { return t.installCalibration(nil) }

// installCalibration swaps in new shifts (nil = uncalibrated) and
// re-prunes the front library's phases whose shifts moved, so Optimize
// never reads fronts pruned under another calibration.
func (t *Trained) installCalibration(shift *canaryShift) error {
	t.calib = shift
	return t.refreshFrontLibrary()
}

// SetCalibration installs per-phase log-scale correction shifts directly —
// the same correction CalibrateCanary measures with probe runs, for
// callers that obtain the residuals elsewhere. The retrainer's
// recalibrate candidate uses it to fold the median log-residual of
// realized production telemetry into the calibration — exactly the
// canary shift, measured for free instead of with fresh probe runs.
func (t *Trained) SetCalibration(spd, deg []float64) error {
	if len(spd) != t.Phases || len(deg) != t.Phases {
		return fmt.Errorf("core: calibration shifts for %d/%d phases, model has %d",
			len(spd), len(deg), t.Phases)
	}
	for ph := 0; ph < t.Phases; ph++ {
		if math.IsNaN(spd[ph]) || math.IsInf(spd[ph], 0) || math.IsNaN(deg[ph]) || math.IsInf(deg[ph], 0) {
			return fmt.Errorf("core: calibration shift for phase %d is not finite", ph)
		}
	}
	return t.installCalibration(&canaryShift{
		spd: append([]float64(nil), spd...),
		deg: append([]float64(nil), deg...),
	})
}

// CalibrationShifts returns copies of the installed per-phase shifts
// (speedup log scale, degradation log1p scale), or ok=false when the
// models are uncalibrated.
func (t *Trained) CalibrationShifts() (spd, deg []float64, ok bool) {
	if t.calib == nil {
		return nil, nil, false
	}
	return append([]float64(nil), t.calib.spd...), append([]float64(nil), t.calib.deg...), true
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}
