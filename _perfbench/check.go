package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"sync"

	"opprox/internal/approx"
	"opprox/internal/apps"
	"opprox/internal/core"
	"opprox/internal/launch"
	"opprox/internal/serve"
)

const (
	// budgetSlack absorbs float rounding in budget comparisons.
	budgetSlack = 1e-9
	// maxCrossChecks bounds how many distinct responses are re-derived by
	// an in-process Optimize on the same model bytes.
	maxCrossChecks = 32
)

// bodyEntry is one distinct response body. Byte-identical responses share
// every check, so each distinct body is checked once, after the run.
type bodyEntry struct {
	job       *job
	corrected string // X-Opprox-Corrected-Budget; "" when uncorrected
	raw       []byte
	resp      serve.DispatchResponse
	truth     float64 // ground-truth degradation of the served schedule
	err       string  // the first failed check; "" when all passed
}

// bodyTable keys responses by (request bytes, corrected budget). A
// repeated key must return the same bytes, from whichever ingress replica
// (D10/D11), until the model version changes.
type bodyTable struct {
	mu      sync.Mutex
	byKey   map[string]int
	entries []*bodyEntry
}

func newBodyTable() *bodyTable { return &bodyTable{byKey: map[string]int{}} }

// note files one response and returns its entry index, or the
// byte-identity failure.
func (t *bodyTable) note(j *job, corrected string, raw []byte) (int, error) {
	key := string(j.body) + "\x00" + corrected
	t.mu.Lock()
	defer t.mu.Unlock()
	if i, ok := t.byKey[key]; ok {
		if bytes.Equal(t.entries[i].raw, raw) {
			return i, nil
		}
		if v := modelVersion(raw); v == modelVersion(t.entries[i].raw) {
			return 0, fmt.Errorf("repeated dispatch returned different bytes on model version %q (D10/D11)", v)
		}
	}
	t.entries = append(t.entries, &bodyEntry{job: j, corrected: corrected, raw: raw})
	t.byKey[key] = len(t.entries) - 1
	return len(t.entries) - 1, nil
}

func modelVersion(raw []byte) string {
	var v struct {
		ModelVersion string `json:"model_version"`
	}
	if json.Unmarshal(raw, &v) != nil {
		return ""
	}
	return v.ModelVersion
}

// verify checks every distinct body once; a seeded sample is also
// re-derived in process.
func (r *runner) verify() {
	rng := rand.New(rand.NewSource(r.seed))
	cross := map[int]bool{}
	for _, i := range rng.Perm(len(r.bodies.entries)) {
		if len(cross) == maxCrossChecks {
			break
		}
		cross[i] = true
	}
	for i, e := range r.bodies.entries {
		e.err = r.check(e, cross[i])
	}
}

// check runs the output checks on one body: it decodes into
// serve.DispatchResponse, its env round-trips through launch.DecodeEnv to
// its levels, its predicted degradation fits the (corrected) budget and,
// when cross is set and the trained model served it, it equals an
// in-process Optimize on the same model bytes. It also prices the served
// schedule's ground-truth degradation.
func (r *runner) check(e *bodyEntry, cross bool) string {
	dec := json.NewDecoder(bytes.NewReader(e.raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&e.resp); err != nil {
		return fmt.Sprintf("body does not decode into serve.DispatchResponse: %v", err)
	}
	resp, j := &e.resp, e.job
	if resp.App != j.app {
		return fmt.Sprintf("response for app %q to a %s dispatch", resp.App, j.app)
	}
	sched, err := launch.DecodeEnv(resp.Env, appTable[j.app].Blocks())
	if err != nil {
		return fmt.Sprintf("env does not decode: %v", err)
	}
	if !resp.Degraded && (sched.Phases != resp.Phases || !levelsEqual(sched.Levels, resp.Levels)) {
		return "env does not round-trip to levels"
	}
	limit := j.budget
	if e.corrected != "" {
		if limit, err = strconv.ParseFloat(e.corrected, 64); err != nil {
			return fmt.Sprintf("bad corrected budget %q", e.corrected)
		}
	}
	if resp.Degradation > limit+budgetSlack {
		return fmt.Sprintf("predicted_degradation %g exceeds the budget %g", resp.Degradation, limit)
	}
	if resp.Degraded || resp.ModelVersion != r.origVer[j.app] {
		return "" // an exact run, or a promoted model: nothing to re-derive
	}
	m := r.orig[j.app]
	for ph, lv := range resp.Levels {
		d, err := m.DiagnosePhase(j.params, ph, approx.Config(lv))
		if err != nil {
			return fmt.Sprintf("served phase %d does not diagnose: %v", ph, err)
		}
		deg, _ := truthDeg(approx.Config(lv), d, 1)
		e.truth += deg
	}
	if cross && e.corrected == "" {
		plan, err := launch.DispatchTrained(&launch.JobConfig{
			App: j.app, Budget: j.budget, Params: j.params, ModelPath: j.app + ".json",
		}, m)
		if err != nil {
			return fmt.Sprintf("in-process Optimize: %v", err)
		}
		if !levelsEqual(plan.Schedule.Levels, resp.Levels) || !slices.Equal(plan.Env, resp.Env) ||
			plan.Pred.Speedup != resp.Speedup || plan.Pred.Degradation != resp.Degradation {
			return "response differs from an in-process Optimize on the same model bytes"
		}
	}
	return ""
}

// truthDeg is the ground-truth degradation of one served phase under a
// drift factor: the trained model's point prediction for its levels with
// log(drift) added on the model's own degradation scale, priced as the
// optimizer prices a plan. The all-zero (accurate) configuration degrades
// nothing, and any other prediction is clamped to [0, apps.MaxDegradation].
// measured is false when the accurate rule or the clamp set the value:
// such a phase has no realized value a client could report whose residual
// against the trained model is the drift alone.
func truthDeg(cfg approx.Config, d core.PhaseDiag, drift float64) (deg float64, measured bool) {
	if cfg.IsAccurate() {
		return 0, false
	}
	v := core.DegradationFromScale(d.DegRaw + math.Log(drift))
	if v < 0 || v > apps.MaxDegradation {
		return math.Min(math.Max(v, 0), apps.MaxDegradation), false
	}
	return v, true
}

func levelsEqual(a []approx.Config, b [][]int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !slices.Equal([]int(a[i]), b[i]) {
			return false
		}
	}
	return true
}
