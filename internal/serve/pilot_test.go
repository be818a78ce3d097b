package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"opprox/internal/core"
	"opprox/internal/feedback"
	"opprox/internal/obs"
	"opprox/internal/retrain"
)

// pilotOptions serve the closed loop at the default drift, retrain and
// promotion thresholds over a registry that retries without waiting.
func pilotOptions(store Store) Options {
	return Options{
		Store:    store,
		Registry: RegistryOptions{RetryBase: time.Microsecond},
	}
}

// driftedFeedback reports realized values far above the predictions for
// both phases of a pso dispatch — the injected input drift.
func driftedFeedback(dispatchID string) string {
	return fmt.Sprintf(`{"dispatch_id": %q, "observations": [`+
		`{"phase": 0, "realized_speedup": 10, "realized_degradation": 5},`+
		`{"phase": 1, "realized_speedup": 10, "realized_degradation": 5}]}`, dispatchID)
}

func getJSON(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, buf.Bytes()
}

func modelsSnapshot(t *testing.T, baseURL string) modelsResponse {
	t.Helper()
	status, body := getJSON(t, baseURL+"/v1/models")
	if status != http.StatusOK {
		t.Fatalf("GET /v1/models: %d %s", status, body)
	}
	var mr modelsResponse
	if err := json.Unmarshal(body, &mr); err != nil {
		t.Fatal(err)
	}
	return mr
}

// recalibratedShadow dark-launches a recalibrated clone of the live
// model through lifecycle.CreateShadowFromBytes — the entry point the
// retrainer uses, so the shadow is installed exactly as a retrain's
// would be. The per-phase shifts are folded into the clone's existing
// calibration on the log scales.
func recalibratedShadow(t *testing.T, srv *Server, model string, spd, deg []float64) string {
	t.Helper()
	raw, _, ok := srv.Lifecycle().LiveRaw(model)
	if !ok {
		t.Fatalf("model %s not resolved", model)
	}
	clone, err := core.LoadTrained(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	cs, cd, ok := clone.CalibrationShifts()
	if !ok {
		cs, cd = make([]float64, clone.Phases), make([]float64, clone.Phases)
	}
	for ph := range cs {
		cs[ph] += spd[ph]
		cd[ph] += deg[ph]
	}
	if err := clone.SetCalibration(cs, cd); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := clone.Save(&buf); err != nil {
		t.Fatal(err)
	}
	ver, err := srv.Lifecycle().CreateShadowFromBytes(model, buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	return ver
}

// driftToShadow posts drifted feedback for dispatchID until the model
// reads drifting, then dark-launches a shadow recalibrated by the drift
// detector's median log-residuals — a fixed, deterministic candidate
// that tracks the drifted feedback better than the live model.
func driftToShadow(t *testing.T, srv *Server, baseURL, dispatchID string) string {
	t.Helper()
	for i := 0; ; i++ {
		status, body := postJSON(t, baseURL+"/v1/feedback", driftedFeedback(dispatchID))
		if status != http.StatusOK {
			t.Fatalf("feedback: %d %s", status, body)
		}
		var fr feedbackResponse
		if err := json.Unmarshal(body, &fr); err != nil {
			t.Fatal(err)
		}
		if fr.State == "drifting" {
			break
		}
		if i == 50 {
			t.Fatal("drifted feedback never flipped the model to drifting")
		}
	}
	spd, deg := srv.detector.Medians("pso.json", 2)
	return recalibratedShadow(t, srv, "pso.json", spd, deg)
}

// TestServeClosedLoopEndToEnd drives the full pilot loop over HTTP:
// dispatch -> drifted feedback -> drift detection (no shadow) -> POST
// /v1/retrain dark-launches a shadow -> auto-promotion -> /v1/models
// flips -> a fresh server started on the promoted store serves a
// byte-identical dispatch -> rollback restores the original version in
// one step.
func TestServeClosedLoopEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model; skipped with -short")
	}
	store := newFakeStore()
	store.files["pso.json"] = trainedModelJSON(t)
	logPath := filepath.Join(t.TempDir(), "telemetry.jsonl")
	flog, err := feedback.OpenLogOptions(logPath, feedback.LogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	opts := pilotOptions(store)
	opts.FeedbackLog = flog
	opts.Retrain = true
	srv := New(opts)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() { flog.Close() })

	// Dispatch: the response carries the feedback key and model version.
	status, body1 := postJSON(t, ts.URL+"/v1/dispatch", dispatchBody)
	if status != http.StatusOK {
		t.Fatalf("dispatch: %d %s", status, body1)
	}
	var resp1 DispatchResponse
	if err := json.Unmarshal(body1, &resp1); err != nil {
		t.Fatal(err)
	}
	if resp1.DispatchID == "" || resp1.ModelVersion == "" {
		t.Fatalf("dispatch response missing closed-loop fields: %s", body1)
	}
	v0 := resp1.ModelVersion
	if mr := modelsSnapshot(t, ts.URL); len(mr.Models) != 1 ||
		mr.Models[0].LiveVersion != v0 || mr.Models[0].Health != "healthy" {
		t.Fatalf("initial lifecycle view: %+v", mr)
	}

	// Drifted reports up to the retrain minimum of telemetry rows (2 per
	// report): large residuals -> CUSUM fires -> drifting. Drift alone
	// builds no shadow.
	reports := 0
	feed := func() feedbackResponse {
		t.Helper()
		status, fb := postJSON(t, ts.URL+"/v1/feedback", driftedFeedback(resp1.DispatchID))
		if status != http.StatusOK {
			t.Fatalf("feedback %d: %d %s", reports, status, fb)
		}
		reports++
		var fr feedbackResponse
		if err := json.Unmarshal(fb, &fr); err != nil {
			t.Fatal(err)
		}
		return fr
	}
	for i := 0; i < retrain.DefaultMinSamples/2; i++ {
		if fr := feed(); fr.State != "drifting" || fr.Promoted {
			t.Fatalf("drifted report %d: %+v", i, fr)
		}
	}
	mr := modelsSnapshot(t, ts.URL)
	if mr.Models[0].Health != "drifting" || mr.Models[0].Shadow != nil || mr.Models[0].LiveVersion != v0 {
		t.Fatalf("lifecycle view after drift: %+v", mr.Models[0])
	}

	// The retrainer is the shadow source.
	status, rb := postJSON(t, ts.URL+"/v1/retrain", `{"model": "pso.json"}`)
	if status != http.StatusOK {
		t.Fatalf("retrain: %d %s", status, rb)
	}
	var rr retrainResult
	if err := json.Unmarshal(rb, &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Status != "shadow_created" || rr.ShadowVersion == "" {
		t.Fatalf("retrain response: %s", rb)
	}
	shadowVer := rr.ShadowVersion
	mr = modelsSnapshot(t, ts.URL)
	if mr.Models[0].Shadow == nil || mr.Models[0].Shadow.Version != shadowVer || mr.Models[0].Shadow.Samples != 0 {
		t.Fatalf("lifecycle view after retrain: %+v", mr.Models[0])
	}

	// A dispatch under an active shadow is served by the live version
	// alone: the body is unchanged.
	status, bodyDark := postJSON(t, ts.URL+"/v1/dispatch", dispatchBody)
	if status != http.StatusOK || !bytes.Equal(bodyDark, body1) {
		t.Fatalf("dark-launch changed the served dispatch:\n%s\n%s", body1, bodyDark)
	}

	// Drifted feedback scores both versions; once both windows reach
	// lifecycle's minimum shadow samples the shadow's realized error wins
	// -> auto-promotion.
	promoted := false
	for i := 0; i < 6 && !promoted; i++ {
		fr := feed()
		promoted = fr.Promoted
		if promoted && fr.State != "healthy" {
			t.Fatalf("promoting report left state %q", fr.State)
		}
	}
	if !promoted {
		t.Fatal("retrained shadow never auto-promoted on drifted feedback")
	}
	mr = modelsSnapshot(t, ts.URL)
	if mr.Models[0].LiveVersion != shadowVer || mr.Models[0].PreviousVersion != v0 ||
		mr.Models[0].Shadow != nil || mr.Models[0].Health != "healthy" {
		t.Fatalf("lifecycle view after promote: %+v", mr.Models[0])
	}

	// Feedback for the pre-promotion dispatch is now stale: logged, but
	// not evidence against the new live version.
	if fr := feed(); fr.Status != "stale_version" {
		t.Fatalf("stale feedback response: %+v", fr)
	}

	// The promoted model serves new dispatches...
	status, body2 := postJSON(t, ts.URL+"/v1/dispatch", dispatchBody)
	if status != http.StatusOK {
		t.Fatalf("dispatch after promote: %d %s", status, body2)
	}
	var resp2 DispatchResponse
	if err := json.Unmarshal(body2, &resp2); err != nil {
		t.Fatal(err)
	}
	if resp2.ModelVersion != shadowVer {
		t.Fatalf("dispatch after promote served version %q, want %q", resp2.ModelVersion, shadowVer)
	}

	// ...and the promotion was persisted: a FRESH server started on the
	// promoted store produces a byte-identical dispatch (determinism
	// across the promote + restart boundary).
	freshStore := newFakeStore()
	store.mu.Lock()
	for name, b := range store.files {
		freshStore.files[name] = append([]byte(nil), b...)
	}
	store.mu.Unlock()
	fresh := httptest.NewServer(New(pilotOptions(freshStore)).Handler())
	t.Cleanup(fresh.Close)
	status, freshBody := postJSON(t, fresh.URL+"/v1/dispatch", dispatchBody)
	if status != http.StatusOK {
		t.Fatalf("fresh dispatch: %d %s", status, freshBody)
	}
	if !bytes.Equal(freshBody, body2) {
		t.Fatalf("fresh server on promoted store differs:\n%s\n%s", body2, freshBody)
	}

	// One-step rollback restores the original version; the dispatch is
	// byte-identical to the very first response.
	status, rbk := postJSON(t, ts.URL+"/v1/rollback", `{"model": "pso.json"}`)
	if status != http.StatusOK {
		t.Fatalf("rollback: %d %s", status, rbk)
	}
	var lr lifecycleResult
	if err := json.Unmarshal(rbk, &lr); err != nil {
		t.Fatal(err)
	}
	if lr.LiveVersion != v0 || lr.PreviousVersion != shadowVer {
		t.Fatalf("rollback result: %s", rbk)
	}
	status, body3 := postJSON(t, ts.URL+"/v1/dispatch", dispatchBody)
	if status != http.StatusOK || !bytes.Equal(body3, body1) {
		t.Fatalf("dispatch after rollback differs from original:\n%s\n%s", body1, body3)
	}

	// Taxonomy on the lifecycle surface: promote without a shadow is a
	// 400, unknown models are 404s.
	if status, body := postJSON(t, ts.URL+"/v1/promote", `{"model": "pso.json"}`); status != http.StatusBadRequest {
		t.Fatalf("promote without shadow: %d %s", status, body)
	}
	if status, body := postJSON(t, ts.URL+"/v1/promote", `{"model": "nope.json"}`); status != http.StatusNotFound {
		t.Fatalf("promote unknown model: %d %s", status, body)
	}
	if status, body := postJSON(t, ts.URL+"/v1/rollback", `{"model": "nope.json"}`); status != http.StatusNotFound {
		t.Fatalf("rollback unknown model: %d %s", status, body)
	}

	// The telemetry log captured every accepted observation (2 phases per
	// report), with residuals filled in.
	if err := flog.Close(); err != nil {
		t.Fatal(err)
	}
	entries, err := feedback.ReadLogFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2*reports {
		t.Fatalf("telemetry log has %d entries, want %d", len(entries), 2*reports)
	}
	for _, e := range entries {
		if e.DispatchID != resp1.DispatchID || e.Model != "pso.json" || e.SpeedupRes == 0 {
			t.Fatalf("bad telemetry entry: %+v", e)
		}
	}
}

// TestDriftCorrectsWithoutShadow pins the one drift response: drifted
// feedback flips the model to drifting and the proactive controller
// corrects the next dispatch's budget, but no shadow is built and the
// live version does not change — shadows come only from the retrainer.
func TestDriftCorrectsWithoutShadow(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model; skipped with -short")
	}
	store := newFakeStore()
	store.files["pso.json"] = trainedModelJSON(t)
	opts := pilotOptions(store)
	opts.Proactive = true
	ts := httptest.NewServer(New(opts).Handler())
	t.Cleanup(ts.Close)
	created := obs.Default.Counter("lifecycle.shadow.created")
	before := created.Value()

	status, body := postJSON(t, ts.URL+"/v1/dispatch", dispatchBody)
	if status != http.StatusOK {
		t.Fatalf("dispatch: %d %s", status, body)
	}
	var d DispatchResponse
	if err := json.Unmarshal(body, &d); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		status, fb := postJSON(t, ts.URL+"/v1/feedback", driftedFeedback(d.DispatchID))
		if status != http.StatusOK {
			t.Fatalf("feedback %d: %d %s", i, status, fb)
		}
		var fr feedbackResponse
		if err := json.Unmarshal(fb, &fr); err != nil {
			t.Fatal(err)
		}
		if fr.State != "drifting" || fr.Promoted || bytes.Contains(fb, []byte("shadow")) {
			t.Fatalf("drifted report %d: %s", i, fb)
		}
	}
	mr := modelsSnapshot(t, ts.URL)
	if m := mr.Models[0]; m.Health != "drifting" || m.Shadow != nil ||
		m.LiveVersion != d.ModelVersion || m.PreviousVersion != "" {
		t.Fatalf("drift changed the lifecycle: %+v", m)
	}
	if n := created.Value() - before; n != 0 {
		t.Fatalf("drift created %d shadows", n)
	}
	status, hdr, _ := postHeaders(t, ts.URL+"/v1/dispatch", dispatchBody)
	if status != http.StatusOK || hdr.Get(correctionHeader) == "" {
		t.Fatalf("drifted model's dispatch is uncorrected: %d %v", status, hdr)
	}
}

// TestServeFeedbackDeterministic is the golden determinism check: two
// independent servers fed the identical dispatch + feedback sequence
// produce byte-identical responses at every step, the same drift
// transitions, and the same lifecycle view.
func TestServeFeedbackDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model; skipped with -short")
	}
	run := func() [][]byte {
		store := newFakeStore()
		store.files["pso.json"] = trainedModelJSON(t)
		ts := httptest.NewServer(New(pilotOptions(store)).Handler())
		defer ts.Close()
		var bodies [][]byte
		_, body := postJSON(t, ts.URL+"/v1/dispatch", dispatchBody)
		bodies = append(bodies, body)
		var resp DispatchResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			_, fb := postJSON(t, ts.URL+"/v1/feedback", driftedFeedback(resp.DispatchID))
			bodies = append(bodies, fb)
		}
		_, models := getJSON(t, ts.URL+"/v1/models")
		bodies = append(bodies, models)
		return bodies
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("response counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("response %d differs across identical runs:\n%s\n%s", i, a[i], b[i])
		}
	}

	// The drift transitions surfaced through /metricsz.
	store := newFakeStore()
	store.files["pso.json"] = trainedModelJSON(t)
	ts := httptest.NewServer(New(pilotOptions(store)).Handler())
	defer ts.Close()
	_, body := postJSON(t, ts.URL+"/v1/dispatch", dispatchBody)
	var resp DispatchResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	postJSON(t, ts.URL+"/v1/feedback", driftedFeedback(resp.DispatchID))
	_, metrics := getJSON(t, ts.URL+"/metricsz")
	for _, key := range []string{"feedback.drift.to_drifting", "serve.feedback.requests"} {
		if !bytes.Contains(metrics, []byte(key)) {
			t.Fatalf("/metricsz missing %q", key)
		}
	}
}

// FuzzFeedbackDecode fuzzes the /v1/feedback body decoder: malformed
// JSON, NaN/Inf literals, unknown fields and unknown dispatch IDs must
// map onto the taxonomy (400/404) — never a panic, never a 5xx.
func FuzzFeedbackDecode(f *testing.F) {
	srv := New(Options{Store: newFakeStore()})
	h := srv.Handler()
	seeds := []string{
		``,
		`{}`,
		`not json`,
		`{"dispatch_id": "d"}`,
		`{"dispatch_id": "d", "observations": []}`,
		`{"dispatch_id": "d", "observations": [{"phase": 0, "realized_speedup": 1.2, "realized_degradation": 3}]}`,
		`{"dispatch_id": "d", "observations": [{"phase": 0, "realized_speedup": NaN}]}`,
		`{"dispatch_id": "d", "observations": [{"phase": 0, "realized_speedup": Infinity}]}`,
		`{"dispatch_id": "d", "observations": [{"phase": -1, "realized_speedup": 1e308, "realized_degradation": 1e308}]}`,
		`{"dispatch_id": "d", "unknown_field": 1}`,
		`{"dispatch_id": 4}`,
		`[1,2,3]`,
		`"string"`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		req := httptest.NewRequest(http.MethodPost, "/v1/feedback", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, req)
		switch rr.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusNotFound:
		default:
			t.Fatalf("status %d for body %q", rr.Code, body)
		}
	})
}
