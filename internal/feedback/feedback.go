// Package feedback is the ingestion half of the closed serving loop:
// clients that ran a dispatched schedule report the realized per-phase
// speedup and QoS degradation back, keyed by the dispatch ID the server
// minted, and the package turns those reports into the quantities the
// drift detector consumes — log-scale residuals against the raw model
// predictions recorded at dispatch time, and band-exceedance flags
// against the same confidence intervals the optimizer priced in.
//
// The package is deliberately free of wall-clock reads and map-order
// effects in anything that feeds results: for a fixed sequence of
// feedback reports the drift-state transitions, the residual medians
// and the telemetry log bytes are identical across runs. That is
// what lets the serving layer promise byte-deterministic closed-loop
// behavior end to end (DESIGN.md §11).
package feedback

import (
	"errors"
	"fmt"
	"math"
)

// Report is the body of POST /v1/feedback: realized values for one
// completed dispatch, identified by the dispatch ID the server returned.
type Report struct {
	DispatchID string `json:"dispatch_id"`
	// Observations carry one entry per phase the client measured; phases
	// are 0-based indices into the dispatched schedule.
	Observations []PhaseObservation `json:"observations"`
}

// PhaseObservation is one phase's realized outcome on the natural scale
// (speedup as a ratio, degradation in QoS points — the same units the
// dispatch response predicted them in).
type PhaseObservation struct {
	Phase       int     `json:"phase"`
	Speedup     float64 `json:"realized_speedup"`
	Degradation float64 `json:"realized_degradation"`
}

// ErrInvalidReport classifies structurally bad feedback — callers map it
// to a 400, distinct from an unknown dispatch ID.
var ErrInvalidReport = errors.New("feedback: invalid report")

// Validate checks a report against the dispatched phase count: at least
// one observation, phases in range and not repeated, and realized values
// finite and on the models' domains (speedup strictly positive for the
// log scale, degradation non-negative for the log1p scale).
func (r *Report) Validate(phases int) error {
	if r.DispatchID == "" {
		return fmt.Errorf("%w: missing dispatch_id", ErrInvalidReport)
	}
	if len(r.Observations) == 0 {
		return fmt.Errorf("%w: no observations", ErrInvalidReport)
	}
	seen := make([]bool, phases)
	for i, obs := range r.Observations {
		if obs.Phase < 0 || obs.Phase >= phases {
			return fmt.Errorf("%w: observation %d: phase %d out of range [0,%d)",
				ErrInvalidReport, i, obs.Phase, phases)
		}
		if seen[obs.Phase] {
			return fmt.Errorf("%w: phase %d reported twice", ErrInvalidReport, obs.Phase)
		}
		seen[obs.Phase] = true
		if math.IsNaN(obs.Speedup) || math.IsInf(obs.Speedup, 0) || obs.Speedup <= 0 {
			return fmt.Errorf("%w: observation %d: realized_speedup %g must be finite and > 0",
				ErrInvalidReport, i, obs.Speedup)
		}
		if math.IsNaN(obs.Degradation) || math.IsInf(obs.Degradation, 0) || obs.Degradation < 0 {
			return fmt.Errorf("%w: observation %d: realized_degradation %g must be finite and >= 0",
				ErrInvalidReport, i, obs.Degradation)
		}
	}
	return nil
}

// Sample is one phase's realized-vs-predicted observation after scaling:
// residuals live on the models' training scales (log for speedup, log1p
// for degradation), so they are directly comparable to the confidence
// bands and to the canary-calibration shifts.
type Sample struct {
	Phase int
	// SpeedupResidual is realized - predicted on the log-speedup scale;
	// DegResidual likewise on the log1p-degradation scale.
	SpeedupResidual float64
	DegResidual     float64
	// SpeedupExceeded / DegExceeded report whether the realized value
	// fell outside the confidence band the optimizer was told to trust.
	SpeedupExceeded bool
	DegExceeded     bool
}
