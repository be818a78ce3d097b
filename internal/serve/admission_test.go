package serve

// Overload-path regression tests (ISSUE 9): the in-flight gate's
// goroutine bound, the degradation ladder's byte-deterministic rungs
// (invariant D13), admission rate limiting and lockout over HTTP, and
// the rate-limited-feedback-leaves-no-trace property.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"opprox/internal/admission"
	"opprox/internal/feedback"
	"opprox/internal/qos"
)

// newAdmissionTestServer is newTestServer but also returns the Server,
// for tests that reach ladder or detector state directly.
func newAdmissionTestServer(t *testing.T, store Store, opts ...func(*Options)) (*Server, *httptest.Server) {
	t.Helper()
	o := Options{Store: store, Registry: RegistryOptions{RetryBase: time.Microsecond}}
	for _, f := range opts {
		f(&o)
	}
	srv := New(o)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// postAs posts a JSON body under an explicit client identity and
// returns the response headers too (rung and Retry-After checks).
func postAs(t *testing.T, url, client, body string) (int, http.Header, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if client != "" {
		req.Header.Set(clientHeader, client)
	}
	resp, err := http.DefaultClient.Do(req)
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

// forceStep pins the ladder over the ops endpoint and returns the
// reported state.
func forceStep(t *testing.T, baseURL string, step int) admissionState {
	t.Helper()
	status, body := postJSON(t, baseURL+"/v1/admission", fmt.Sprintf(`{"force_step": %d}`, step))
	if status != http.StatusOK {
		t.Fatalf("force step %d: %d %s", step, status, body)
	}
	var st admissionState
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	return st
}

func dispatchWithBudget(budget float64) string {
	return fmt.Sprintf(`{"app": "pso", "budget": %g, "params": {"swarm": 16, "dim": 4}, "model_path": "pso.json"}`, budget)
}

// TestGateBoundsAbandonedGoroutines is the abandoned-goroutine-leak
// regression: a burst of dispatches against a wedged model store, all
// timing out, must strand at most one parked model load — and zero once
// the store unwedges. Under a small cap the in-flight count also stays
// within MaxInFlight; at the default cap, which the burst never fills,
// it still shares one load.
func TestGateBoundsAbandonedGoroutines(t *testing.T) {
	var dreq DispatchRequest
	if err := json.Unmarshal([]byte(dispatchBody), &dreq); err != nil {
		t.Fatal(err)
	}
	// burstTimeouts fires 48 dispatches that each give up after 25ms and
	// waits for all of them to return.
	burstTimeouts := func(srv *Server) {
		var wg sync.WaitGroup
		for i := 0; i < 48; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ctx, cancel := context.WithTimeout(context.Background(), 25*time.Millisecond)
				defer cancel()
				srv.dispatch(ctx, &dreq)
			}()
		}
		wg.Wait()
	}
	const slack = 6

	t.Run("gated", func(t *testing.T) {
		bs := blockingStore{release: make(chan struct{})}
		srv := New(Options{
			Store:       bs,
			Registry:    RegistryOptions{RetryBase: time.Microsecond},
			MaxInFlight: 4,
		})
		base := runtime.NumGoroutine()
		burstTimeouts(srv)

		// Every request has returned. Only work that won a gate slot may
		// still be running (parked in the store); before the gate, all 48
		// abandoned goroutines would still be alive here.
		if g := runtime.NumGoroutine(); g > base+4+slack {
			t.Fatalf("%d goroutines after timed-out burst (baseline %d, in-flight cap 4): abandoned computations leaked", g, base)
		}
		if got := srv.gate.InFlight(); got > 4 {
			t.Fatalf("in-flight %d exceeds cap 4", got)
		}

		close(bs.release)
		waitForGoroutines(t, base+2)
	})

	t.Run("ungated", func(t *testing.T) {
		if testing.Short() {
			t.Skip("trains a model; skipped with -short")
		}
		store := newFakeStore()
		store.files["pso.json"] = trainedModelJSON(t)
		ws := &wedgedStore{Store: store, release: make(chan struct{})}
		srv := New(Options{
			Store:    ws,
			Registry: RegistryOptions{RetryBase: time.Microsecond},
		})
		base := runtime.NumGoroutine()
		burstTimeouts(srv)

		// The burst shares one model load, parked in Open; every request
		// gave up on its own deadline without starting another.
		if p := ws.parked.Load(); p > 1 {
			t.Fatalf("%d loads parked in the store, want at most 1", p)
		}
		if g := runtime.NumGoroutine(); g > base+1+slack {
			t.Fatalf("%d goroutines after timed-out burst (baseline %d, gate never full): timed-out requests left work behind", g, base)
		}

		close(ws.release)
		waitForGoroutines(t, base+2)
		// 48 timeouts pushed the ladder to its reject step; pin step 0 so
		// the next dispatch takes the compute path.
		if err := srv.ladder.Force(0); err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		got := conformanceDispatch(t, ts.URL)
		assertSameBody(t, "after the store unwedged", got, conformanceDispatch(t, newTestServer(t, store).URL))
	})
}

// wedgedStore parks every Open until release is closed, then serves the
// wrapped store; parked counts the Opens currently waiting.
type wedgedStore struct {
	Store
	release chan struct{}
	parked  atomic.Int32
}

func (s *wedgedStore) Open(name string) (io.ReadCloser, error) {
	s.parked.Add(1)
	defer s.parked.Add(-1)
	<-s.release
	return s.Store.Open(name)
}

// waitForGoroutines waits up to 5s for the goroutine count to fall to
// at most n.
func waitForGoroutines(t *testing.T, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > n {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines did not drain after release: %d, want <= %d", runtime.NumGoroutine(), n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestDispatchRateLimit pins the limiter's HTTP face: over-budget
// clients get 429 + Retry-After with the over_capacity code, and
// per-client buckets are keyed by the forwarded client identity.
func TestDispatchRateLimit(t *testing.T) {
	_, ts := newAdmissionTestServer(t, newFakeStore(), func(o *Options) {
		o.Admission = &admission.Options{ClientRate: 0.0001, ClientBurst: 2}
	})

	for i := 0; i < 2; i++ {
		status, _, body := postAs(t, ts.URL+"/v1/dispatch", "alice", dispatchBody)
		if status != http.StatusOK {
			t.Fatalf("dispatch %d: %d %s", i, status, body)
		}
	}
	status, hdr, body := postAs(t, ts.URL+"/v1/dispatch", "alice", dispatchBody)
	if status != http.StatusTooManyRequests {
		t.Fatalf("over-budget dispatch: %d %s, want 429", status, body)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatalf("429 without Retry-After header")
	}
	var eb errorBody
	if err := json.Unmarshal(body, &eb); err != nil {
		t.Fatal(err)
	}
	if eb.Error != "over_capacity" {
		t.Fatalf("error code %q, want over_capacity", eb.Error)
	}

	// A different client identity has its own bucket.
	if status, _, body := postAs(t, ts.URL+"/v1/dispatch", "bob", dispatchBody); status != http.StatusOK {
		t.Fatalf("fresh client rejected: %d %s", status, body)
	}
}

// TestInvalidBodyLockout: repeated invalid bodies lock the client out
// of both dispatch and feedback, without any rate limit configured.
func TestInvalidBodyLockout(t *testing.T) {
	_, ts := newAdmissionTestServer(t, newFakeStore(), func(o *Options) {
		o.Admission = &admission.Options{
			FailureLimit: 2,
			Lockout:      time.Minute,
		}
	})

	for i := 0; i < 2; i++ {
		status, _, body := postAs(t, ts.URL+"/v1/dispatch", "mallory", `{not json`)
		if status != http.StatusBadRequest {
			t.Fatalf("invalid body %d: %d %s, want 400", i, status, body)
		}
	}
	status, hdr, body := postAs(t, ts.URL+"/v1/dispatch", "mallory", dispatchBody)
	if status != http.StatusTooManyRequests || !strings.Contains(string(body), "locked_out") {
		t.Fatalf("locked-out dispatch: %d %s, want 429 locked_out", status, body)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatalf("lockout 429 without Retry-After header")
	}
	// The lockout covers feedback too.
	status, _, body = postAs(t, ts.URL+"/v1/feedback", "mallory", `{"dispatch_id": "d", "observations": []}`)
	if status != http.StatusTooManyRequests {
		t.Fatalf("locked-out feedback: %d %s, want 429", status, body)
	}
	// Well-behaved clients are untouched.
	if status, _, body := postAs(t, ts.URL+"/v1/dispatch", "alice", dispatchBody); status != http.StatusOK {
		t.Fatalf("clean client rejected during another's lockout: %d %s", status, body)
	}
}

// TestAdmissionEndpoint pins the /v1/admission contract: the snapshot
// shape, force-step validation, and method handling.
func TestAdmissionEndpoint(t *testing.T) {
	_, ts := newAdmissionTestServer(t, newFakeStore())

	status, body := getJSON(t, ts.URL+"/v1/admission")
	if status != http.StatusOK {
		t.Fatalf("GET /v1/admission: %d %s", status, body)
	}
	var st admissionState
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.LadderStep != 0 || st.ForcedStep != -1 || st.InFlightCap != DefaultMaxInFlight || st.RateLimited {
		t.Fatalf("idle admission state: %+v", st)
	}

	if status, body := postJSON(t, ts.URL+"/v1/admission", `{"force_step": 7}`); status != http.StatusBadRequest {
		t.Fatalf("force_step 7: %d %s, want 400", status, body)
	}
	if status, body := postJSON(t, ts.URL+"/v1/admission", `{"bogus": 1}`); status != http.StatusBadRequest {
		t.Fatalf("unknown field: %d %s, want 400", status, body)
	}

	st = forceStep(t, ts.URL, 2)
	if st.LadderStep != 2 || st.ForcedStep != 2 {
		t.Fatalf("forced state: %+v", st)
	}
	st = forceStep(t, ts.URL, -1)
	if st.ForcedStep != -1 {
		t.Fatalf("restored state: %+v", st)
	}
}

// TestLadderRungByteDeterminism walks every rung of the degradation
// ladder and pins invariant D13: for a fixed (model version, request,
// rung) the body is byte-identical — and a coarse body is exactly the
// full body of the budget-quantized request.
func TestLadderRungByteDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model; skipped with -short")
	}
	store := newFakeStore()
	store.files["pso.json"] = trainedModelJSON(t)
	_, ts := newAdmissionTestServer(t, store)

	// Step 0 baseline: budget 10 sits on the default coarse grid
	// (quantum 5), so it is exactly what budget 12 degrades to.
	status, hdr, bodyQ := postAs(t, ts.URL+"/v1/dispatch", "", dispatchWithBudget(10))
	if status != http.StatusOK {
		t.Fatalf("baseline dispatch: %d %s", status, bodyQ)
	}
	if got := hdr.Get(rungHeader); got != rungFull {
		t.Fatalf("baseline rung %q, want %q", got, rungFull)
	}

	// Step 1: a miss is served as the quantized request — here a cache
	// hit on the budget-10 plan, byte-identical to the full-path bytes.
	forceStep(t, ts.URL, 1)
	for i := 0; i < 2; i++ {
		status, hdr, body := postAs(t, ts.URL+"/v1/dispatch", "", dispatchWithBudget(12))
		if status != http.StatusOK {
			t.Fatalf("coarse dispatch %d: %d %s", i, status, body)
		}
		if got := hdr.Get(rungHeader); got != rungCoarse {
			t.Fatalf("coarse rung %q, want %q", got, rungCoarse)
		}
		if string(body) != string(bodyQ) {
			t.Fatalf("coarse body differs from the quantized request's full body:\n%s\n%s", body, bodyQ)
		}
	}

	// Step 1 compute path: an uncached quantum computes at the coarse
	// budget; the cached result must later be byte-identical to a plain
	// full dispatch at that budget.
	status, hdr, bodyC := postAs(t, ts.URL+"/v1/dispatch", "", dispatchWithBudget(17))
	if status != http.StatusOK || hdr.Get(rungHeader) != rungCoarse {
		t.Fatalf("coarse compute: %d rung %q %s", status, hdr.Get(rungHeader), bodyC)
	}

	// Step 2: misses get the deterministic all-accurate overload body
	// with a constant reason; cache hits still serve healthy bytes.
	forceStep(t, ts.URL, 2)
	status, hdr, bodyX := postAs(t, ts.URL+"/v1/dispatch", "", dispatchWithBudget(40))
	if status != http.StatusOK || hdr.Get(rungHeader) != rungExact {
		t.Fatalf("exact rung: %d rung %q %s", status, hdr.Get(rungHeader), bodyX)
	}
	var xr DispatchResponse
	if err := json.Unmarshal(bodyX, &xr); err != nil {
		t.Fatal(err)
	}
	if !xr.Degraded || xr.Reason != overloadReason || xr.DispatchID != "" {
		t.Fatalf("overload body: %s", bodyX)
	}
	if _, _, again := postAs(t, ts.URL+"/v1/dispatch", "", dispatchWithBudget(40)); string(again) != string(bodyX) {
		t.Fatalf("overload body not deterministic:\n%s\n%s", bodyX, again)
	}
	status, hdr, body := postAs(t, ts.URL+"/v1/dispatch", "", dispatchWithBudget(10))
	if status != http.StatusOK || hdr.Get(rungHeader) != rungCached || string(body) != string(bodyQ) {
		t.Fatalf("cached rung at step 2: %d rung %q", status, hdr.Get(rungHeader))
	}

	// Step 3: misses are shed with 429 + Retry-After; hits still serve.
	forceStep(t, ts.URL, 3)
	status, hdr, body = postAs(t, ts.URL+"/v1/dispatch", "", dispatchWithBudget(50))
	if status != http.StatusTooManyRequests || hdr.Get(rungHeader) != rungReject {
		t.Fatalf("reject rung: %d rung %q %s", status, hdr.Get(rungHeader), body)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatalf("ladder 429 without Retry-After header")
	}
	status, hdr, body = postAs(t, ts.URL+"/v1/dispatch", "", dispatchWithBudget(10))
	if status != http.StatusOK || hdr.Get(rungHeader) != rungCached || string(body) != string(bodyQ) {
		t.Fatalf("cached rung at step 3: %d rung %q", status, hdr.Get(rungHeader))
	}

	// Recovery: control returns to the load controller and the idle
	// server steps down one rung per qos.LadderDwell dispatches. The overload
	// body served for budget 40 must NOT have been cached — its healthy
	// recomputation is a real plan, and the coarse budget-15 plan is
	// byte-identical to a plain budget-15 dispatch (D13 transparency).
	forceStep(t, ts.URL, -1)
	var last []byte
	var lastHdr http.Header
	for i := 0; i < qos.LadderDwell*qos.LadderSteps; i++ {
		status, lastHdr, last = postAs(t, ts.URL+"/v1/dispatch", "", dispatchWithBudget(40))
		if status == http.StatusOK && lastHdr.Get(rungHeader) == rungFull {
			break
		}
	}
	if lastHdr.Get(rungHeader) != rungFull {
		t.Fatalf("ladder did not recover to full service: rung %q %s", lastHdr.Get(rungHeader), last)
	}
	var hr DispatchResponse
	if err := json.Unmarshal(last, &hr); err != nil {
		t.Fatal(err)
	}
	if hr.Degraded || string(last) == string(bodyX) {
		t.Fatalf("overload fallback leaked into the healthy plan cache: %s", last)
	}
	status, _, body15 := postAs(t, ts.URL+"/v1/dispatch", "", dispatchWithBudget(15))
	if status != http.StatusOK || string(body15) != string(bodyC) {
		t.Fatalf("coarse body differs from the plain body at the quantized budget:\n%s\n%s", bodyC, body15)
	}
}

// TestDegradeRecoverPlanCache is the degrade->recover regression: a
// degraded (model unavailable) body must never be stored under — or
// later served from — the healthy plan key.
func TestDegradeRecoverPlanCache(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model; skipped with -short")
	}
	store := newFakeStore() // pso.json missing: dispatch degrades
	_, ts := newAdmissionTestServer(t, store)

	status, degradedBody := postJSON(t, ts.URL+"/v1/dispatch", dispatchBody)
	if status != http.StatusOK {
		t.Fatalf("degraded dispatch: %d %s", status, degradedBody)
	}
	var dr DispatchResponse
	if err := json.Unmarshal(degradedBody, &dr); err != nil {
		t.Fatal(err)
	}
	if !dr.Degraded {
		t.Fatalf("missing model did not degrade: %s", degradedBody)
	}

	// The model appears; the same request must now serve healthily —
	// not replay the degraded bytes from any cache layer.
	store.Put("pso.json", trainedModelJSON(t))
	status, healthy := postJSON(t, ts.URL+"/v1/dispatch", dispatchBody)
	if status != http.StatusOK {
		t.Fatalf("recovered dispatch: %d %s", status, healthy)
	}
	var hr DispatchResponse
	if err := json.Unmarshal(healthy, &hr); err != nil {
		t.Fatal(err)
	}
	if hr.Degraded || hr.DispatchID == "" {
		t.Fatalf("dispatch after recovery still degraded: %s", healthy)
	}
	// And the now-cached healthy plan replays byte-identically.
	if _, cached := postJSON(t, ts.URL+"/v1/dispatch", dispatchBody); string(cached) != string(healthy) {
		t.Fatalf("cached replay differs after recovery:\n%s\n%s", healthy, cached)
	}
}

// TestLadderStateSurvivesPromoteRollback: promote and rollback swap
// model versions, not load state — a forced ladder step (and the
// degradation it implies) must hold across both.
func TestLadderStateSurvivesPromoteRollback(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model; skipped with -short")
	}
	store := newFakeStore()
	store.files["pso.json"] = trainedModelJSON(t)
	srv := New(pilotOptions(store))
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	status, body1 := postJSON(t, ts.URL+"/v1/dispatch", dispatchBody)
	if status != http.StatusOK {
		t.Fatalf("dispatch: %d %s", status, body1)
	}
	var resp1 DispatchResponse
	if err := json.Unmarshal(body1, &resp1); err != nil {
		t.Fatal(err)
	}

	forceStep(t, ts.URL, 2)

	// Drifted feedback flips the model to drifting, a shadow is
	// dark-launched, and further feedback auto-promotes it — all while
	// the ladder is pinned.
	driftToShadow(t, srv, ts.URL, resp1.DispatchID)
	promoted := false
	for i := 0; i < 6 && !promoted; i++ {
		status, fb := postJSON(t, ts.URL+"/v1/feedback", driftedFeedback(resp1.DispatchID))
		if status != http.StatusOK {
			t.Fatalf("feedback %d: %d %s", i, status, fb)
		}
		var fr feedbackResponse
		if err := json.Unmarshal(fb, &fr); err != nil {
			t.Fatal(err)
		}
		promoted = fr.Promoted
	}
	if !promoted {
		t.Fatal("shadow never auto-promoted")
	}
	st := forceStep(t, ts.URL, 2) // re-read state (POST is idempotent here)
	if st.ForcedStep != 2 || st.LadderStep != 2 {
		t.Fatalf("ladder state after auto-promote: %+v", st)
	}
	// Promote invalidated the old version's plans: a fresh budget at
	// step 2 is a miss and serves the overload fallback.
	status, hdr, body := postAs(t, ts.URL+"/v1/dispatch", "", dispatchWithBudget(12))
	if status != http.StatusOK || hdr.Get(rungHeader) != rungExact {
		t.Fatalf("post-promote dispatch: %d rung %q %s", status, hdr.Get(rungHeader), body)
	}

	if status, rb := postJSON(t, ts.URL+"/v1/rollback", `{"model": "pso.json"}`); status != http.StatusOK {
		t.Fatalf("rollback: %d %s", status, rb)
	}
	status, body = getJSON(t, ts.URL+"/v1/admission")
	if status != http.StatusOK {
		t.Fatalf("GET /v1/admission: %d %s", status, body)
	}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.ForcedStep != 2 || st.LadderStep != 2 {
		t.Fatalf("ladder state after rollback: %+v", st)
	}
	status, hdr, body = postAs(t, ts.URL+"/v1/dispatch", "", dispatchWithBudget(13))
	if status != http.StatusOK || hdr.Get(rungHeader) != rungExact {
		t.Fatalf("post-rollback dispatch: %d rung %q %s", status, hdr.Get(rungHeader), body)
	}
}

// TestRateLimitedFeedbackNeverAdvancesCUSUM is the property test for
// the feedback overload path: a rate-limited drifted report — one that
// would flip the detector on acceptance — must leave zero trace in the
// drift state, however many times it is retried.
func TestRateLimitedFeedbackNeverAdvancesCUSUM(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model; skipped with -short")
	}
	store := newFakeStore()
	store.files["pso.json"] = trainedModelJSON(t)
	opts := pilotOptions(store)
	opts.Admission = &admission.Options{ClientRate: 1e-9, ClientBurst: 1}
	srv := New(opts)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	status, _, body1 := postAs(t, ts.URL+"/v1/dispatch", "dispatcher", dispatchBody)
	if status != http.StatusOK {
		t.Fatalf("dispatch: %d %s", status, body1)
	}
	var resp1 DispatchResponse
	if err := json.Unmarshal(body1, &resp1); err != nil {
		t.Fatal(err)
	}

	// Burn the attacker's single token on a harmless unknown-dispatch
	// report, then hammer with drift evidence: every attempt must be
	// rejected before the body is even read.
	if status, _, body := postAs(t, ts.URL+"/v1/feedback", "attacker", `{"dispatch_id": "nope", "observations": []}`); status != http.StatusNotFound {
		t.Fatalf("token-burning feedback: %d %s, want 404", status, body)
	}
	for i := 0; i < 10; i++ {
		status, _, body := postAs(t, ts.URL+"/v1/feedback", "attacker", driftedFeedback(resp1.DispatchID))
		if status != http.StatusTooManyRequests {
			t.Fatalf("rate-limited feedback %d: %d %s, want 429", i, status, body)
		}
		if st := srv.detector.State("pso.json"); st != feedback.Healthy {
			t.Fatalf("rejected feedback advanced drift state to %v after %d attempts", st, i+1)
		}
	}

	// The identical payload from an admitted client flips the detector
	// immediately — proof the rejected copies carried real evidence.
	status, _, fb := postAs(t, ts.URL+"/v1/feedback", "reporter", driftedFeedback(resp1.DispatchID))
	if status != http.StatusOK {
		t.Fatalf("admitted feedback: %d %s", status, fb)
	}
	if st := srv.detector.State("pso.json"); st != feedback.Drifting {
		t.Fatalf("admitted drifted feedback left state %v, want drifting", st)
	}
}
