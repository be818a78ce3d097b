package serve

// The proactive phase controller (DESIGN.md §16). Between retrains the
// confidence-banded model runs open-loop: dispatch picks a schedule the
// model predicts will meet the QoS budget, with the conservative band
// upper bounds already folded into that choice. What open-loop control
// cannot absorb is a systematic shift — the model consistently
// under-predicting degradation after a phase change. The controller
// closes that gap Capri-style, with feedback correction instead of
// per-job measurement: the drift detector's median degradation
// residuals (realized minus predicted, on the log1p training scale)
// become a correction c, and every subsequent dispatch of the model is
// served at the tightened budget log1p(B) - c. When the retrain
// pipeline ships a fixed model the detector resets and the correction
// falls back to zero.
//
// Determinism: the correction is a pure function of the feedback
// sequence (the detector's windows), quantized onto a fixed grid, and
// the corrected response body is exactly the full body of the corrected
// request — the same idiom as the coarse degradation rung (D13). The
// grid also bounds plan-cache fragmentation: one client budget maps to
// at most correctionMax/correctionQuantum distinct corrected budgets.

import (
	"math"
	"strconv"
	"sync"
)

const (
	// correctionHeader reports the active correction on a corrected
	// dispatch response; correctedBudgetHeader the budget actually served.
	correctionHeader      = "X-Opprox-Correction"
	correctedBudgetHeader = "X-Opprox-Corrected-Budget"

	// correctionQuantum is the correction grid (log1p scale).
	correctionQuantum = 0.05
	// correctionMax clamps the correction: proactive control absorbs
	// modest drift; larger shifts are the retrainer's job.
	correctionMax = 0.5
)

// controller holds the per-model budget corrections.
type controller struct {
	mu   sync.Mutex
	corr map[string]float64
}

func newController() *controller {
	return &controller{corr: make(map[string]float64)}
}

// update recomputes a model's correction from the detector's current
// per-phase median degradation residuals: the worst under-prediction,
// quantized UP onto the grid (conservative — never under-correct), and
// clamped. Negative medians (over-prediction) never loosen the budget:
// the client's budget is a ceiling, not a target.
func (c *controller) update(model string, degMedians []float64) float64 {
	worst := 0.0
	for _, m := range degMedians {
		if m > worst {
			worst = m
		}
	}
	corr := 0.0
	if worst > 0 {
		corr = math.Ceil(worst/correctionQuantum) * correctionQuantum
		if corr > correctionMax {
			corr = correctionMax
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if corr == 0 {
		delete(c.corr, model)
	} else {
		c.corr[model] = corr
	}
	return corr
}

// correction returns the model's active correction (0 when none).
func (c *controller) correction(model string) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.corr[model]
}

// reset drops a model's correction — called alongside every
// detector.Reset: a new live version invalidates the evidence the
// correction was measured from.
func (c *controller) reset(model string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.corr, model)
}

// correctedBudget tightens a degradation budget by corr on the
// training (log1p) scale, clamped at exact execution.
func correctedBudget(budget, corr float64) float64 {
	b := math.Expm1(math.Log1p(budget) - corr)
	if b < 0 {
		b = 0
	}
	return b
}

func formatCorrection(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
