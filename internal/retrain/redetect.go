package retrain

import (
	"errors"

	"opprox/internal/approx"
	"opprox/internal/core"
)

// Online phase-boundary re-detection (DESIGN.md §16). The offline
// segmentation fixed the number of phases; what can change in
// production is whether those phases still BEHAVE distinctly. This
// file answers two questions from the realized-residual stream alone:
//
//  1. WHEN did behavior shift? A single-changepoint scan (binary
//     segmentation, one split) over the signed residual series in
//     arrival order. Rows before the changepoint describe the old
//     regime and are dropped from retraining when enough remain.
//  2. WHICH phases still differ? Per-phase mean-residual profiles on
//     the post-change rows. Adjacent phases whose profiles agree
//     within the threshold — and that both actually drifted — are
//     proposed as one pooled group: the observed evidence says the
//     model's segmentation splits them for no behavioral reason, so
//     their rows should pool into one refit.
//
// Everything is a pure function of the row sequence: ties in the
// changepoint scan resolve to the earliest index, and all means reduce
// in slice order.

// Segmentation is a proposed re-segmentation of a model's phases,
// derived from observed behavior.
type Segmentation struct {
	// Groups partitions the phase indices; a group with more than one
	// phase proposes pooling their rows into a single refit.
	Groups [][]int `json:"groups"`
	// Diverged reports that observed behavior diverges from the model's
	// current segmentation beyond the threshold — some phase's residual
	// profile shifted, or phases the model separates are behaviorally
	// indistinguishable while drifting together.
	Diverged bool `json:"diverged"`
	// Changepoint is the index (into the arrival-ordered rows) of the
	// detected behavior shift, -1 when none cleared the threshold;
	// ChangeDelta is the residual-mean jump across it.
	Changepoint int     `json:"changepoint"`
	ChangeDelta float64 `json:"change_delta,omitempty"`
	// SpeedupProfile and DegProfile are the per-phase mean signed
	// residuals (training scales) over the post-change rows; Counts is
	// the per-phase row count behind them.
	SpeedupProfile []float64 `json:"speedup_profile"`
	DegProfile     []float64 `json:"deg_profile"`
	Counts         []int     `json:"counts"`
	// Post holds the rows after the changepoint trim, in arrival order —
	// the rows retraining should fit. Excluded from API responses.
	Post []Row `json:"-"`
}

// Redetect scans the rows (any order; re-sorted by seq internally) for
// a behavior shift against the live model and proposes a
// re-segmentation. threshold is on the models' log scales — 0.15 means
// a ~16% systematic multiplicative misprediction. minSamples bounds
// the changepoint trim: the pre-change rows are only dropped when at
// least minSamples rows remain.
func Redetect(live *core.Trained, rows []Row, threshold float64, minSamples int) (*Segmentation, error) {
	if live == nil {
		return nil, errors.New("retrain: Redetect needs the live model")
	}
	if threshold <= 0 {
		threshold = redetectThreshold
	}
	if minSamples < 4 {
		minSamples = 4
	}
	ordered := append([]Row(nil), rows...)
	sortBySeq(ordered)

	// Residuals against the CURRENT live model — the logged residuals
	// were computed against whichever version served each dispatch, so
	// they are not comparable across a promote.
	sres := make([]float64, 0, len(ordered))
	dres := make([]float64, 0, len(ordered))
	kept := ordered[:0]
	for _, r := range ordered {
		diag, err := live.DiagnosePhase(r.Params, r.Phase, approx.Config(r.Levels))
		if err != nil {
			// A row the live model cannot price (e.g. logged against an
			// incompatible historic version) is dropped, deterministically.
			continue
		}
		sres = append(sres, core.SpeedupScale(r.Speedup)-diag.SpeedupRaw)
		dres = append(dres, core.DegradationScale(r.Degradation)-diag.DegRaw)
		kept = append(kept, r)
	}
	ordered = kept

	seg := &Segmentation{Changepoint: -1, Post: ordered}
	n := len(ordered)
	if n > 0 {
		minSeg := n / 10
		if minSeg < 4 {
			minSeg = 4
		}
		kS, dS := bestSplit(sres, minSeg)
		kD, dD := bestSplit(dres, minSeg)
		k, delta := kS, dS
		if dD > delta {
			k, delta = kD, dD
		}
		if k >= 0 && delta > threshold {
			seg.Changepoint = k
			seg.ChangeDelta = delta
			if n-k >= minSamples {
				seg.Post = ordered[k:]
				sres = sres[k:]
				dres = dres[k:]
			}
		}
	}

	// Per-phase residual profiles on the post-change rows.
	phases := live.Phases
	sSum := make([]float64, phases)
	dSum := make([]float64, phases)
	seg.Counts = make([]int, phases)
	for i, r := range seg.Post {
		sSum[r.Phase] += sres[i]
		dSum[r.Phase] += dres[i]
		seg.Counts[r.Phase]++
	}
	seg.SpeedupProfile = make([]float64, phases)
	seg.DegProfile = make([]float64, phases)
	shifted := make([]bool, phases)
	for ph := 0; ph < phases; ph++ {
		if seg.Counts[ph] == 0 {
			continue
		}
		seg.SpeedupProfile[ph] = sSum[ph] / float64(seg.Counts[ph])
		seg.DegProfile[ph] = dSum[ph] / float64(seg.Counts[ph])
		// A phase needs at least two rows to call its mean a shift.
		if seg.Counts[ph] >= 2 &&
			(abs(seg.SpeedupProfile[ph]) > threshold || abs(seg.DegProfile[ph]) > threshold) {
			shifted[ph] = true
			seg.Diverged = true
		}
	}

	// Merge adjacent phases that drifted TOGETHER: both shifted, and
	// their post-change profiles agree within the threshold. Phases that
	// did not drift keep their own (still accurate) models, so they are
	// never pooled.
	for ph := 0; ph < phases; ph++ {
		g := []int{ph}
		for ph+1 < phases && shifted[ph] && shifted[ph+1] &&
			abs(seg.SpeedupProfile[ph]-seg.SpeedupProfile[ph+1]) <= threshold &&
			abs(seg.DegProfile[ph]-seg.DegProfile[ph+1]) <= threshold {
			ph++
			g = append(g, ph)
		}
		seg.Groups = append(seg.Groups, g)
	}
	return seg, nil
}

// bestSplit finds the single split maximizing the absolute difference
// of the two sides' means, with both sides at least minSeg long.
// Returns (-1, 0) when the series is too short. Ties resolve to the
// earliest split; the prefix-sum scan reduces in index order, so the
// answer is bit-stable.
func bestSplit(x []float64, minSeg int) (int, float64) {
	n := len(x)
	if n < 2*minSeg {
		return -1, 0
	}
	total := 0.0
	for _, v := range x {
		total += v
	}
	bestK, bestDelta := -1, 0.0
	left := 0.0
	for k := 1; k <= n-minSeg; k++ {
		left += x[k-1]
		if k < minSeg {
			continue
		}
		d := abs(left/float64(k) - (total-left)/float64(n-k))
		if d > bestDelta {
			bestDelta, bestK = d, k
		}
	}
	return bestK, bestDelta
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
