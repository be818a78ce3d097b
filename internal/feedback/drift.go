package feedback

import (
	"math"
	"sort"
	"sync"

	"opprox/internal/obs"
)

// State is a model's drift-health classification.
type State int

const (
	// Healthy: realized values track the confidence bands.
	Healthy State = iota
	// Drifting: a phase's realized values left the bands persistently
	// (exceedance fraction) or accumulated a systematic bias (CUSUM).
	// The serving layer's proactive controller corrects budgets from
	// the same evidence.
	Drifting
	// Stale: the drift persisted beyond Options.StaleAfter further
	// observations without recovery — the model should not be trusted
	// until replaced; the serving layer retrains it. Terminal until Reset.
	Stale
)

// String returns the state name used in API responses and metrics.
func (s State) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Drifting:
		return "drifting"
	case Stale:
		return "stale"
	default:
		return "unknown"
	}
}

// Options are the drift-detector thresholds. The zero value is usable:
// every field falls back to the documented default.
type Options struct {
	// Window is the per-phase sliding window of recent observations
	// (default 20).
	Window int
	// MinSamples is how many observations a phase needs before the
	// exceedance trigger may fire (default 8); the CUSUM trigger is
	// always armed.
	MinSamples int
	// MaxExceedFrac flips a phase to drifting when the fraction of
	// windowed observations outside the confidence band reaches it
	// (default 0.5 — the bands were built at p=0.95-ish levels, so even
	// 50% exceedance is far outside calibration).
	MaxExceedFrac float64
	// CUSUMSlack is the drift allowance k subtracted per step on the
	// log-residual scale (default 0.05).
	CUSUMSlack float64
	// CUSUMThreshold is the decision bound h on the accumulated one-sided
	// sums (default 1.0 — roughly twenty steps of 0.1 systematic bias).
	CUSUMThreshold float64
	// StaleAfter is how many further observations a model may spend in
	// Drifting before it is declared Stale (default 200).
	StaleAfter int
}

func (o Options) withDefaults() Options {
	if o.Window <= 0 {
		o.Window = 20
	}
	if o.MinSamples <= 0 {
		o.MinSamples = 8
	}
	if o.MaxExceedFrac <= 0 {
		o.MaxExceedFrac = 0.5
	}
	if o.CUSUMSlack <= 0 {
		o.CUSUMSlack = 0.05
	}
	if o.CUSUMThreshold <= 0 {
		o.CUSUMThreshold = 1.0
	}
	if o.StaleAfter <= 0 {
		o.StaleAfter = 200
	}
	return o
}

// Transition is one recorded state change.
type Transition struct {
	Model string
	From  State
	To    State
}

// targetTrack follows one (phase, target) stream: a ring of residuals
// with parallel exceedance flags, plus two-sided CUSUM sums.
type targetTrack struct {
	resid  []float64
	exceed []bool
	next   int
	filled int

	exceedCount int // exceedances currently inside the ring

	cusumPos float64
	cusumNeg float64
}

func (t *targetTrack) observe(window int, res float64, ex bool, slack float64) {
	if t.resid == nil {
		t.resid = make([]float64, window)
		t.exceed = make([]bool, window)
	}
	if t.filled == window && t.exceed[t.next] {
		t.exceedCount--
	}
	t.resid[t.next] = res
	t.exceed[t.next] = ex
	if ex {
		t.exceedCount++
	}
	t.next = (t.next + 1) % window
	if t.filled < window {
		t.filled++
	}
	t.cusumPos = math.Max(0, t.cusumPos+res-slack)
	t.cusumNeg = math.Max(0, t.cusumNeg-res-slack)
}

func (t *targetTrack) triggered(o Options) bool {
	if t.filled >= o.MinSamples &&
		float64(t.exceedCount) >= o.MaxExceedFrac*float64(t.filled) {
		return true
	}
	return t.cusumPos > o.CUSUMThreshold || t.cusumNeg > o.CUSUMThreshold
}

// median over the residuals currently in the ring (0 when empty).
func (t *targetTrack) median() float64 {
	if t.filled == 0 {
		return 0
	}
	s := append([]float64(nil), t.resid[:t.filled]...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// phaseTrack pairs the two per-phase target streams.
type phaseTrack struct {
	spd targetTrack
	deg targetTrack
}

// tracker is one model's drift state.
type tracker struct {
	state    State
	driftAge int
	phases   []*phaseTrack // indexed by phase; grown on demand
}

// Detector folds feedback samples into per-model drift state. All state
// transitions are a pure function of the observation sequence: no clocks,
// no randomness, no map-order effects — an identical feedback sequence
// yields identical transitions (the golden determinism test pins this).
type Detector struct {
	mu     sync.Mutex
	opts   Options
	models map[string]*tracker
}

// NewDetector builds a detector with the given thresholds.
func NewDetector(opts Options) *Detector {
	return &Detector{opts: opts.withDefaults(), models: map[string]*tracker{}}
}

// Options returns the resolved (defaulted) thresholds.
func (d *Detector) Options() Options { return d.opts }

// Observe ingests one feedback report's samples for a model and returns
// the resulting state plus any transition this report caused. Samples
// are processed in slice order.
func (d *Detector) Observe(model string, samples []Sample) (State, []Transition) {
	d.mu.Lock()
	defer d.mu.Unlock()
	tr := d.models[model]
	if tr == nil {
		tr = &tracker{}
		d.models[model] = tr
	}
	for _, s := range samples {
		for s.Phase >= len(tr.phases) {
			tr.phases = append(tr.phases, &phaseTrack{})
		}
		pt := tr.phases[s.Phase]
		pt.spd.observe(d.opts.Window, s.SpeedupResidual, s.SpeedupExceeded, d.opts.CUSUMSlack)
		pt.deg.observe(d.opts.Window, s.DegResidual, s.DegExceeded, d.opts.CUSUMSlack)
		if s.SpeedupExceeded {
			obs.Inc("feedback.exceed.speedup")
		}
		if s.DegExceeded {
			obs.Inc("feedback.exceed.deg")
		}
	}

	trig := false
	for _, pt := range tr.phases {
		if pt.spd.triggered(d.opts) || pt.deg.triggered(d.opts) {
			trig = true
			break
		}
	}

	var trans []Transition
	move := func(to State, counter string) {
		trans = append(trans, Transition{Model: model, From: tr.state, To: to})
		tr.state = to
		obs.Inc(counter)
		obs.LogEvent("feedback.drift", "%s: %s -> %s", model, trans[len(trans)-1].From, to)
	}
	switch tr.state {
	case Healthy:
		if trig {
			tr.driftAge = 0
			move(Drifting, "feedback.drift.to_drifting")
		}
	case Drifting:
		if !trig {
			move(Healthy, "feedback.drift.recovered")
		} else {
			tr.driftAge += len(samples)
			if tr.driftAge >= d.opts.StaleAfter {
				move(Stale, "feedback.drift.to_stale")
			}
		}
	case Stale:
		// Held until Reset or Rearm: a stale model must be replaced, not
		// quietly rehabilitated by a lucky window.
	}
	obs.Set("feedback.state."+model, float64(tr.state))
	return tr.state, trans
}

// State returns the model's current drift state (Healthy when never
// observed).
func (d *Detector) State(model string) State {
	d.mu.Lock()
	defer d.mu.Unlock()
	if tr := d.models[model]; tr != nil {
		return tr.state
	}
	return Healthy
}

// Medians returns the per-phase median residuals over the current
// windows, sized to phases — the evidence the proactive controller
// turns into a budget correction.
func (d *Detector) Medians(model string, phases int) (spd, deg []float64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	spd = make([]float64, phases)
	deg = make([]float64, phases)
	tr := d.models[model]
	if tr == nil {
		return spd, deg
	}
	for ph := 0; ph < phases && ph < len(tr.phases); ph++ {
		spd[ph] = tr.phases[ph].spd.median()
		deg[ph] = tr.phases[ph].deg.median()
	}
	return spd, deg
}

// Rearm moves a stale model back to Drifting with a fresh drift age —
// used when a retrain triggered by the stale transition shipped nothing —
// so drift that persists escalates to Stale, and a retrain, again. A
// model that is no longer stale is left alone.
func (d *Detector) Rearm(model string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if tr := d.models[model]; tr != nil && tr.state == Stale {
		tr.state, tr.driftAge = Drifting, 0
		obs.Inc("feedback.drift.rearmed")
		obs.LogEvent("feedback.drift", "%s: %s -> %s (re-armed)", model, Stale, Drifting)
		obs.Set("feedback.state."+model, float64(Drifting))
	}
}

// Reset drops a model's tracker — used when a new live version is
// installed (promotion, rollback, reload): the fresh model starts with a
// clean healthy window.
func (d *Detector) Reset(model string) {
	d.mu.Lock()
	delete(d.models, model)
	d.mu.Unlock()
	obs.Set("feedback.state."+model, float64(Healthy))
}
