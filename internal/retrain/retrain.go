package retrain

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"sort"

	"opprox/internal/approx"
	"opprox/internal/core"
	"opprox/internal/lifecycle"
	"opprox/internal/obs"
)

const (
	// DefaultMinSamples is Options.MinSamples' zero value.
	DefaultMinSamples = 32
	// redetectThreshold is the phase re-detection divergence threshold
	// on the models' log scales.
	redetectThreshold = 0.15
	// holdoutFrac is the fraction of rows (the most recent, by log
	// sequence) held out for candidate selection.
	holdoutFrac = 0.25
	// refitSeed drives every stochastic step (CV fold shuffles); fixed
	// seed + fixed telemetry prefix = byte-identical artifacts.
	refitSeed = 1
	// minGroupRows is the smallest per-(class, group) row count worth a
	// refit — below it the trained models stay (core.RetrainGlobal's
	// floor is the 4 rows two-fold CV needs; this is deliberately
	// higher, a refit on a handful of rows just chases noise).
	minGroupRows = 8
)

// Options tunes a retrain run.
type Options struct {
	// MinSamples is how many extracted rows a retrain needs; below it
	// Retrain returns ErrInsufficientData (default DefaultMinSamples).
	MinSamples int
}

// Retrain errors; the serving layer maps them onto its HTTP taxonomy.
var (
	// ErrInsufficientData: the telemetry log has too few usable rows.
	ErrInsufficientData = errors.New("retrain: not enough telemetry rows")
	// ErrNoImprovement: no candidate beat the live model on the holdout
	// by minHoldoutGain.
	ErrNoImprovement = errors.New("retrain: no candidate beat the live model")
)

// minHoldoutGain is the fraction by which a candidate's holdout error
// must undercut the live model's to ship. A smaller edge is within the
// holdout's noise, and shipping it would let each re-armed stale
// escalation promote again within one drift regime.
const minHoldoutGain = 0.05

// Candidate records one retrain strategy's outcome: either a built
// model (Version + holdout error) or the reason it was infeasible.
type Candidate struct {
	// Name: "recalibrate" (fold median residual shifts into the
	// calibration), "refit" (refit each phase's global models from its
	// own rows), or "refit-pooled" (refit over the re-detected phase
	// groups — only attempted when re-detection diverged).
	Name       string  `json:"name"`
	Version    string  `json:"version,omitempty"`
	HoldoutErr float64 `json:"holdout_err,omitempty"`
	// Err is the infeasibility reason when the candidate was not built.
	Err string `json:"err,omitempty"`
	// RefitPhases lists the phases a refit candidate rebuilt.
	RefitPhases []int `json:"refit_phases,omitempty"`

	raw []byte
}

// Result is a completed retrain run. On ErrNoImprovement a non-nil
// Result still carries the per-candidate diagnostics.
type Result struct {
	Model       string        `json:"model"`
	LiveVersion string        `json:"live_version"`
	Rows        int           `json:"rows"`
	TrainRows   int           `json:"train_rows"`
	HoldoutRows int           `json:"holdout_rows"`
	Skipped     int           `json:"skipped,omitempty"`
	Seg         *Segmentation `json:"segmentation,omitempty"`
	Candidates  []Candidate   `json:"candidates"`
	// LiveHoldoutErr is the live model's mean holdout error — the bar
	// every candidate must clear.
	LiveHoldoutErr float64 `json:"live_holdout_err"`
	// Winner names the selected candidate; Version and Raw are its
	// content-hash version and serialized bytes.
	Winner  string `json:"winner,omitempty"`
	Version string `json:"version,omitempty"`
	Raw     []byte `json:"-"`
	// ShadowVersion is set by the Retrainer once the winner is
	// dark-launched.
	ShadowVersion string `json:"shadow_version,omitempty"`
}

// Retrain fits candidate models from an extracted telemetry matrix and
// selects the one with the lowest realized error on a held-out suffix
// of the telemetry. liveRaw is the live model's serialized form — every
// candidate starts from a clone of those exact bytes, so the run is a
// pure function of (liveRaw, matrix, opts): invariant D14.
//
// The holdout is the most RECENT holdoutFrac of the rows (by log
// sequence): candidates train on the past and are judged on the
// present, which is the only honest split for drifted telemetry.
func Retrain(liveRaw []byte, m *Matrix, opts Options) (*Result, error) {
	stop := obs.Timer("retrain.duration")
	defer stop()
	if opts.MinSamples <= 0 {
		opts.MinSamples = DefaultMinSamples
	}
	res := &Result{Model: m.Model, LiveVersion: lifecycle.Version(liveRaw), Rows: len(m.Rows), Skipped: m.Skipped}
	if len(m.Rows) < opts.MinSamples {
		return nil, fmt.Errorf("%w: %d rows for model %q, need %d", ErrInsufficientData, len(m.Rows), m.Model, opts.MinSamples)
	}
	live, err := core.LoadTrained(bytes.NewReader(liveRaw))
	if err != nil {
		return nil, fmt.Errorf("retrain: live model: %w", err)
	}

	// Deterministic train/holdout split on the sequence axis.
	bySeq := append([]Row(nil), m.Rows...)
	sortBySeq(bySeq)
	nHold := int(math.Ceil(holdoutFrac * float64(len(bySeq))))
	if nHold < 1 {
		nHold = 1
	}
	if nHold >= len(bySeq) {
		nHold = len(bySeq) - 1
	}
	trainRows := bySeq[:len(bySeq)-nHold]
	holdout := append([]Row(nil), bySeq[len(bySeq)-nHold:]...)
	sortByDispatch(holdout)
	res.HoldoutRows = len(holdout)

	// Re-detect phase boundaries on the training rows only (the holdout
	// must not influence what it judges), trimming pre-changepoint rows
	// when enough remain.
	minPost := opts.MinSamples / 2
	if minPost < 8 {
		minPost = 8
	}
	seg, err := Redetect(live, trainRows, redetectThreshold, minPost)
	if err != nil {
		return nil, err
	}
	res.Seg = seg
	train := append([]Row(nil), seg.Post...)
	sortByDispatch(train)
	res.TrainRows = len(train)

	res.LiveHoldoutErr = holdoutErr(live, holdout)

	// Candidates in fixed order; ties in holdout error resolve to the
	// earlier (simpler) strategy.
	res.Candidates = append(res.Candidates, buildRecalibrate(liveRaw, live, train))
	res.Candidates = append(res.Candidates, buildRefit(liveRaw, "refit", nil, train))
	if seg.Diverged && hasPooledGroup(seg.Groups) {
		res.Candidates = append(res.Candidates, buildRefit(liveRaw, "refit-pooled", seg.Groups, train))
	}

	winner := -1
	for i := range res.Candidates {
		c := &res.Candidates[i]
		if c.raw == nil {
			continue
		}
		c.Version = lifecycle.Version(c.raw)
		if c.Version == res.LiveVersion {
			c.raw = nil
			c.Err = "identical to live version"
			continue
		}
		// Judge exactly the bytes that would be served.
		cand, err := core.LoadTrained(bytes.NewReader(c.raw))
		if err != nil {
			c.raw = nil
			c.Err = fmt.Sprintf("candidate does not round-trip: %v", err)
			continue
		}
		c.HoldoutErr = holdoutErr(cand, holdout)
		if winner < 0 || c.HoldoutErr < res.Candidates[winner].HoldoutErr {
			winner = i
		}
	}
	if winner < 0 || res.Candidates[winner].HoldoutErr >= (1-minHoldoutGain)*res.LiveHoldoutErr {
		obs.Inc("retrain.no_improvement")
		return res, fmt.Errorf("%w: live holdout err %.4g over %d rows", ErrNoImprovement, res.LiveHoldoutErr, len(holdout))
	}
	res.Winner = res.Candidates[winner].Name
	res.Version = res.Candidates[winner].Version
	res.Raw = res.Candidates[winner].raw
	obs.Inc("retrain.runs")
	obs.LogEvent("retrain", "%s: %s wins (%.4g vs live %.4g over %d holdout rows)",
		m.Model, res.Winner, res.Candidates[winner].HoldoutErr, res.LiveHoldoutErr, len(holdout))
	return res, nil
}

// buildRecalibrate folds the training rows' median residuals (vs the
// live model) into the calibration shifts — the cheap candidate, the
// same correction the drift path applies, but measured over the whole
// training window.
func buildRecalibrate(liveRaw []byte, live *core.Trained, train []Row) Candidate {
	c := Candidate{Name: "recalibrate"}
	phases := live.Phases
	sres := make([][]float64, phases)
	dres := make([][]float64, phases)
	for _, r := range train {
		diag, err := live.DiagnosePhase(r.Params, r.Phase, approx.Config(r.Levels))
		if err != nil {
			continue
		}
		sres[r.Phase] = append(sres[r.Phase], core.SpeedupScale(r.Speedup)-diag.SpeedupRaw)
		dres[r.Phase] = append(dres[r.Phase], core.DegradationScale(r.Degradation)-diag.DegRaw)
	}
	addSpd := make([]float64, phases)
	addDeg := make([]float64, phases)
	zero := true
	for ph := 0; ph < phases; ph++ {
		addSpd[ph] = median(sres[ph])
		addDeg[ph] = median(dres[ph])
		zero = zero && addSpd[ph] == 0 && addDeg[ph] == 0
	}
	if zero {
		c.Err = "median residuals are zero"
		return c
	}
	clone, err := core.LoadTrained(bytes.NewReader(liveRaw))
	if err != nil {
		c.Err = err.Error()
		return c
	}
	spd, deg, ok := clone.CalibrationShifts()
	if !ok {
		spd = make([]float64, phases)
		deg = make([]float64, phases)
	}
	for ph := 0; ph < phases; ph++ {
		spd[ph] += addSpd[ph]
		deg[ph] += addDeg[ph]
	}
	if err := clone.SetCalibration(spd, deg); err != nil {
		c.Err = err.Error()
		return c
	}
	c.raw = saveBytes(clone, &c)
	return c
}

// buildRefit clones the live bytes and refits the global models from
// the training rows, singleton phases (groups == nil) or the
// re-detected pooled groups.
func buildRefit(liveRaw []byte, name string, groups [][]int, train []Row) Candidate {
	c := Candidate{Name: name}
	clone, err := core.LoadTrained(bytes.NewReader(liveRaw))
	if err != nil {
		c.Err = err.Error()
		return c
	}
	samples := make([]core.FeedbackSample, len(train))
	for i, r := range train {
		samples[i] = core.FeedbackSample{
			Params:      r.Params,
			Levels:      r.Levels,
			Phase:       r.Phase,
			Speedup:     r.Speedup,
			Degradation: r.Degradation,
		}
	}
	refit, err := clone.RetrainGlobal(samples, groups, minGroupRows, refitSeed)
	if err != nil {
		c.Err = err.Error()
		return c
	}
	c.RefitPhases = refit
	c.raw = saveBytes(clone, &c)
	return c
}

// saveBytes serializes a candidate, recording a failure on it.
func saveBytes(tr *core.Trained, c *Candidate) []byte {
	var out bytes.Buffer
	if err := tr.Save(&out); err != nil {
		c.Err = err.Error()
		return nil
	}
	return out.Bytes()
}

// holdoutErr is the mean absolute residual of a model's raw predictions
// over the holdout rows, both targets on their training scales — the
// same realized-error quantity the lifecycle's live-vs-shadow windows
// compare, so candidate selection optimizes exactly the metric
// auto-promotion will later judge the shadow on. Rows the model cannot
// price are skipped (deterministically).
func holdoutErr(tr *core.Trained, holdout []Row) float64 {
	sum, n := 0.0, 0
	for _, r := range holdout {
		diag, err := tr.DiagnosePhase(r.Params, r.Phase, approx.Config(r.Levels))
		if err != nil {
			continue
		}
		sum += (abs(core.SpeedupScale(r.Speedup)-diag.SpeedupRaw) +
			abs(core.DegradationScale(r.Degradation)-diag.DegRaw)) / 2
		n++
	}
	if n == 0 {
		return math.Inf(1)
	}
	return sum / float64(n)
}

// hasPooledGroup reports whether any group pools more than one phase.
func hasPooledGroup(groups [][]int) bool {
	for _, g := range groups {
		if len(g) > 1 {
			return true
		}
	}
	return false
}

// median of a slice (0 for empty); sorts a copy.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
