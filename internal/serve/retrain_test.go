package serve

// Tests for the retraining endpoint (/v1/retrain), the stale-state
// trigger, the proactive controller, and the retrain-vs-lifecycle race
// (run under -race).

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"opprox/internal/feedback"
	"opprox/internal/retrain"
)

// retrainServer starts a server with retraining enabled over a real
// (rotating) telemetry log.
func retrainServer(t *testing.T, store Store, mutate ...func(*Options)) *httptest.Server {
	t.Helper()
	flog, err := feedback.OpenLogOptions(
		filepath.Join(t.TempDir(), "telemetry.jsonl"),
		feedback.LogOptions{MaxBytes: 1 << 10}, // tiny: exercises rotation mid-flow
	)
	if err != nil {
		t.Fatal(err)
	}
	opts := pilotOptions(store)
	opts.FeedbackLog = flog
	opts.Retrain = true
	opts.RetrainOpts = retrain.Options{MinSamples: 8}
	for _, f := range mutate {
		f(&opts)
	}
	srv := New(opts)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() { flog.Close() })
	return ts
}

// postHeaders is postJSON plus the response headers.
func postHeaders(t *testing.T, url, body string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, b
}

// retrainResult is the client-side view of a /v1/retrain response.
type retrainResult struct {
	Status        string              `json:"status"`
	Rows          int                 `json:"rows"`
	Winner        string              `json:"winner"`
	ShadowVersion string              `json:"shadow_version"`
	Candidates    []retrain.Candidate `json:"candidates"`
}

// TestServeRetrainEndToEnd drives the full retraining loop over HTTP:
// dispatch -> drifted feedback accumulates telemetry -> POST /v1/retrain
// dark-launches a retrained shadow -> further feedback auto-promotes it.
// No request in the whole flow may see a 5xx (the serving path stays up
// through retrain and promote).
func TestServeRetrainEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model; skipped with -short")
	}
	store := newFakeStore()
	store.files["pso.json"] = trainedModelJSON(t)
	ts := retrainServer(t, store)

	post := func(path, body string) (int, []byte) {
		t.Helper()
		status, b := postJSON(t, ts.URL+path, body)
		if status >= 500 {
			t.Fatalf("POST %s returned %d during the retrain flow: %s", path, status, b)
		}
		return status, b
	}

	// A model the registry has never resolved is unknown to the
	// retrainer too.
	if status, body := post("/v1/retrain", `{"model": "nope.json"}`); status != http.StatusNotFound {
		t.Fatalf("retrain unknown model: %d %s", status, body)
	}
	if status, body := getJSON(t, ts.URL+"/v1/retrain"); status != http.StatusBadRequest {
		t.Fatalf("GET /v1/retrain: %d %s", status, body)
	}

	status, body := post("/v1/dispatch", dispatchBody)
	if status != http.StatusOK {
		t.Fatalf("dispatch: %d %s", status, body)
	}
	var d1 DispatchResponse
	if err := json.Unmarshal(body, &d1); err != nil {
		t.Fatal(err)
	}
	v0 := d1.ModelVersion

	// The model is live but no telemetry exists yet: nothing to fit.
	if status, body := post("/v1/retrain", `{"model": "pso.json"}`); status != http.StatusBadRequest {
		t.Fatalf("retrain on empty telemetry: %d %s", status, body)
	}

	// Drifted feedback: drift alone builds no shadow, so the model sits
	// in "drifting" while telemetry accumulates — 5 reports x 2 phases
	// clears MinSamples 8.
	for i := 0; i < 5; i++ {
		if status, fb := post("/v1/feedback", driftedFeedback(d1.DispatchID)); status != http.StatusOK {
			t.Fatalf("feedback %d: %d %s", i, status, fb)
		}
	}
	if mr := modelsSnapshot(t, ts.URL); mr.Models[0].Shadow != nil {
		t.Fatalf("drift alone dark-launched a shadow: %+v", mr.Models[0])
	}

	// The retrain run replays the telemetry (across rotated segments),
	// fits candidates, and dark-launches the winner.
	status, body = post("/v1/retrain", `{"model": "pso.json"}`)
	if status != http.StatusOK {
		t.Fatalf("retrain: %d %s", status, body)
	}
	var rr retrainResult
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Status != "shadow_created" || rr.ShadowVersion == "" || rr.Winner == "" {
		t.Fatalf("retrain response: %s", body)
	}
	if rr.Rows != 10 {
		t.Fatalf("retrain saw %d rows, want 10 (5 reports x 2 phases)", rr.Rows)
	}
	mr := modelsSnapshot(t, ts.URL)
	if mr.Models[0].Shadow == nil || mr.Models[0].Shadow.Version != rr.ShadowVersion {
		t.Fatalf("retrained shadow not dark-launched: %+v", mr.Models[0])
	}

	// A retrain with a shadow already active (and no new telemetry) must
	// not clobber it with a 5xx — the lifecycle layer rejects the
	// duplicate dark-launch cleanly.
	if status, body := post("/v1/retrain", `{"model": "pso.json"}`); status >= 500 {
		t.Fatalf("second retrain: %d %s", status, body)
	}

	// Further drifted feedback becomes comparison evidence; the
	// retrained shadow tracks the drifted reality better than the stale
	// live model and auto-promotes.
	promoted := false
	for i := 0; i < 6 && !promoted; i++ {
		status, fb := post("/v1/feedback", driftedFeedback(d1.DispatchID))
		if status != http.StatusOK {
			t.Fatalf("post-retrain feedback %d: %d %s", i, status, fb)
		}
		var fr feedbackResponse
		if err := json.Unmarshal(fb, &fr); err != nil {
			t.Fatal(err)
		}
		promoted = fr.Promoted
	}
	if !promoted {
		t.Fatal("retrained shadow never auto-promoted on drifted feedback")
	}
	mr = modelsSnapshot(t, ts.URL)
	if mr.Models[0].LiveVersion != rr.ShadowVersion || mr.Models[0].PreviousVersion != v0 {
		t.Fatalf("lifecycle view after retrain promote: %+v", mr.Models[0])
	}

	// The serving path is intact on the retrained model, and one-step
	// rollback still restores the original version.
	status, body = post("/v1/dispatch", dispatchBody)
	if status != http.StatusOK {
		t.Fatalf("dispatch after retrain promote: %d %s", status, body)
	}
	var d2 DispatchResponse
	if err := json.Unmarshal(body, &d2); err != nil {
		t.Fatal(err)
	}
	if d2.ModelVersion != rr.ShadowVersion {
		t.Fatalf("dispatch served %q after promoting retrained %q", d2.ModelVersion, rr.ShadowVersion)
	}
	if status, rb := post("/v1/rollback", `{"model": "pso.json"}`); status != http.StatusOK {
		t.Fatalf("rollback after retrain promote: %d %s", status, rb)
	}
	if mr := modelsSnapshot(t, ts.URL); mr.Models[0].LiveVersion != v0 {
		t.Fatalf("rollback did not restore %q: %+v", v0, mr.Models[0])
	}
}

// TestServeRetrainNotEnabled pins the taxonomy when the pipeline is off.
func TestServeRetrainNotEnabled(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model; skipped with -short")
	}
	store := newFakeStore()
	store.files["pso.json"] = trainedModelJSON(t)
	ts := newTestServer(t, store)
	status, body := postJSON(t, ts.URL+"/v1/retrain", `{"model": "pso.json"}`)
	if status != http.StatusBadRequest {
		t.Fatalf("retrain without the pipeline: %d %s", status, body)
	}
}

// TestServeRetrainStaleTrigger drives a model into the terminal stale
// state and checks the feedback response
// reports a background retrain start, and that the retrained shadow
// eventually appears without any further API call.
func TestServeRetrainStaleTrigger(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model; skipped with -short")
	}
	store := newFakeStore()
	store.files["pso.json"] = trainedModelJSON(t)
	ts := retrainServer(t, store, func(o *Options) {
		o.Drift.StaleAfter = 6 // drifting goes terminal quickly
	})

	status, body := postJSON(t, ts.URL+"/v1/dispatch", dispatchBody)
	if status != http.StatusOK {
		t.Fatalf("dispatch: %d %s", status, body)
	}
	var d DispatchResponse
	if err := json.Unmarshal(body, &d); err != nil {
		t.Fatal(err)
	}

	started := false
	for i := 0; i < 10 && !started; i++ {
		status, fb := postJSON(t, ts.URL+"/v1/feedback", driftedFeedback(d.DispatchID))
		if status != http.StatusOK {
			t.Fatalf("feedback %d: %d %s", i, status, fb)
		}
		var fr feedbackResponse
		if err := json.Unmarshal(fb, &fr); err != nil {
			t.Fatal(err)
		}
		started = fr.RetrainStarted
	}
	if !started {
		t.Fatal("stale transition never reported retrain_started")
	}

	// The trigger runs in the background; poll the lifecycle view for
	// the dark-launched shadow.
	deadline := time.Now().Add(10 * time.Second)
	for {
		mr := modelsSnapshot(t, ts.URL)
		if mr.Models[0].Shadow != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("background retrain never dark-launched a shadow: %+v", mr.Models[0])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestProactiveControllerCorrection checks the Capri-style loop:
// degradation under-prediction feedback sets a quantized budget
// correction, the next dispatch carries the correction headers, its
// body is exactly the full body of the corrected request (served by an
// uncorrected server — the D13 idiom), and a promote resets the
// correction.
func TestProactiveControllerCorrection(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model; skipped with -short")
	}
	store := newFakeStore()
	store.files["pso.json"] = trainedModelJSON(t)
	ts := retrainServer(t, store, func(o *Options) {
		o.Proactive = true
	})

	status, hdr, body1 := postHeaders(t, ts.URL+"/v1/dispatch", dispatchBody)
	if status != http.StatusOK {
		t.Fatalf("dispatch: %d %s", status, body1)
	}
	if hdr.Get(correctionHeader) != "" {
		t.Fatalf("healthy dispatch carries a correction: %v", hdr)
	}
	var d DispatchResponse
	if err := json.Unmarshal(body1, &d); err != nil {
		t.Fatal(err)
	}

	// Drifted feedback (degradation far above prediction) fills the
	// median windows; every report refreshes the correction.
	for i := 0; i < 4; i++ {
		if status, fb := postJSON(t, ts.URL+"/v1/feedback", driftedFeedback(d.DispatchID)); status != http.StatusOK {
			t.Fatalf("feedback %d: %d %s", i, status, fb)
		}
	}

	// The corrected dispatch: headers report the correction and the
	// tightened budget. The drift here is enormous, so the correction
	// sits at the clamp — exactly correctionMax.
	status, hdr, corrected := postHeaders(t, ts.URL+"/v1/dispatch", dispatchBody)
	if status != http.StatusOK {
		t.Fatalf("corrected dispatch: %d %s", status, corrected)
	}
	corrHdr := hdr.Get(correctionHeader)
	budgetHdr := hdr.Get(correctedBudgetHeader)
	if corrHdr == "" || budgetHdr == "" {
		t.Fatalf("corrected dispatch missing controller headers: %v", hdr)
	}
	corr, err := strconv.ParseFloat(corrHdr, 64)
	if err != nil {
		t.Fatal(err)
	}
	if corr != correctionMax {
		t.Fatalf("correction %v, want the clamp %v", corr, correctionMax)
	}
	served, err := strconv.ParseFloat(budgetHdr, 64)
	if err != nil || served <= 0 || served >= 10 {
		t.Fatalf("corrected budget %q did not tighten the requested 10", budgetHdr)
	}
	if want := correctedBudget(10, corr); served != want {
		t.Fatalf("corrected budget %v, want %v", served, want)
	}

	// D13 idiom: the corrected body is exactly the full body an
	// UNCORRECTED server produces for the corrected budget.
	plain := newFakeStore()
	plain.files["pso.json"] = trainedModelJSON(t)
	plainTS := newTestServer(t, plain)
	plainBody := fmt.Sprintf(
		`{"app": "pso", "budget": %s, "params": {"swarm": 16, "dim": 4}, "model_path": "pso.json"}`,
		budgetHdr)
	status, want := postJSON(t, plainTS.URL+"/v1/dispatch", plainBody)
	if status != http.StatusOK {
		t.Fatalf("plain dispatch at corrected budget: %d %s", status, want)
	}
	if string(corrected) != string(want) {
		t.Fatalf("corrected body is not the full body of the corrected request:\n%s\n%s", corrected, want)
	}

	// Retrain a shadow from the accumulated telemetry (4 reports x 2
	// phases = 8 rows) and promote it manually: the promote resets the
	// detector AND the correction — the evidence referred to the old
	// live version.
	status, rb := postJSON(t, ts.URL+"/v1/retrain", `{"model": "pso.json"}`)
	if status != http.StatusOK {
		t.Fatalf("retrain: %d %s", status, rb)
	}
	var rr retrainResult
	if err := json.Unmarshal(rb, &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Status != "shadow_created" {
		t.Fatalf("retrain response: %s", rb)
	}
	if status, pb := postJSON(t, ts.URL+"/v1/promote", `{"model": "pso.json"}`); status != http.StatusOK {
		t.Fatalf("promote: %d %s", status, pb)
	}
	status, hdr, after := postHeaders(t, ts.URL+"/v1/dispatch", dispatchBody)
	if status != http.StatusOK {
		t.Fatalf("dispatch after promote: %d %s", status, after)
	}
	if hdr.Get(correctionHeader) != "" {
		t.Fatalf("correction survived the promote reset: %v", hdr)
	}
}

// TestControllerUnit pins the controller's quantization, clamping and
// budget arithmetic without a server.
func TestControllerUnit(t *testing.T) {
	c := newController()

	// Over-prediction (negative medians) never loosens the budget.
	if got := c.update("m", []float64{-0.4, -0.1}); got != 0 {
		t.Fatalf("negative medians produced correction %v", got)
	}
	if c.correction("m") != 0 {
		t.Fatal("correction stored for a healthy model")
	}
	// The worst positive median is quantized UP onto the grid.
	got := c.update("m", []float64{0.11, 0.02})
	if got < 0.15-1e-12 || got > 0.15+1e-12 {
		t.Fatalf("correction %v, want 0.15 (ceil(0.11/0.05)*0.05)", got)
	}
	if c.correction("m") != got {
		t.Fatal("stored correction differs from the returned one")
	}
	// Clamp.
	if got := c.update("m", []float64{3}); got != 0.5 {
		t.Fatalf("correction %v, want the 0.5 clamp", got)
	}
	// A recovered model (all medians back under 0) drops its entry.
	if got := c.update("m", []float64{-0.01, 0}); got != 0 || c.correction("m") != 0 {
		t.Fatal("recovery did not clear the correction")
	}
	// Reset clears.
	c.update("m", []float64{1})
	c.reset("m")
	if c.correction("m") != 0 {
		t.Fatal("reset did not clear the correction")
	}
	// Budget arithmetic: tightening on log1p, clamped at exact.
	if got := correctedBudget(0.05, 10); got != 0 {
		t.Fatalf("over-corrected budget %v, want clamp at 0", got)
	}
	b := correctedBudget(10, 0.1)
	if b <= 0 || b >= 10 {
		t.Fatalf("corrected budget %v out of (0, 10)", b)
	}
}

// TestRetrainLifecycleRace hammers retrain, promote, rollback, dispatch
// and feedback concurrently (run under -race): no data race, and no
// request may see a 5xx — the serving path stays consistent while the
// lifecycle mutates underneath it.
func TestRetrainLifecycleRace(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model; skipped with -short")
	}
	store := newFakeStore()
	store.files["pso.json"] = trainedModelJSON(t)
	ts := retrainServer(t, store, func(o *Options) {
		o.Proactive = true
	})

	status, body := postJSON(t, ts.URL+"/v1/dispatch", dispatchBody)
	if status != http.StatusOK {
		t.Fatalf("seed dispatch: %d %s", status, body)
	}
	var d DispatchResponse
	if err := json.Unmarshal(body, &d); err != nil {
		t.Fatal(err)
	}
	// Seed enough telemetry that concurrent retrains can find rows.
	for i := 0; i < 5; i++ {
		if status, fb := postJSON(t, ts.URL+"/v1/feedback", driftedFeedback(d.DispatchID)); status != http.StatusOK {
			t.Fatalf("seed feedback: %d %s", status, fb)
		}
	}

	const workers, iters = 6, 12
	paths := []struct{ path, body string }{
		{"/v1/dispatch", dispatchBody},
		{"/v1/feedback", driftedFeedback(d.DispatchID)},
		{"/v1/retrain", `{"model": "pso.json"}`},
		{"/v1/promote", `{"model": "pso.json"}`},
		{"/v1/rollback", `{"model": "pso.json"}`},
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				p := paths[(w+i)%len(paths)]
				resp, err := http.Post(ts.URL+p.path, "application/json", strings.NewReader(p.body))
				if err != nil {
					t.Errorf("%s: %v", p.path, err)
					return
				}
				b, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode >= 500 {
					t.Errorf("%s returned %d under concurrent lifecycle churn: %s", p.path, resp.StatusCode, b)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	// The loop must settle into a servable state.
	if status, b := postJSON(t, ts.URL+"/v1/dispatch", dispatchBody); status != http.StatusOK {
		t.Fatalf("dispatch after churn: %d %s", status, b)
	}
}
