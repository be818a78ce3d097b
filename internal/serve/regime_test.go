package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"opprox/internal/feedback"
	"opprox/internal/obs"
)

// TestMultiRegimeReplayPromotionsBounded replays seeded dispatch and
// feedback traffic on one model through alternating degradation regimes
// (realized degradation x2, then x1, and so on) with the telemetry log,
// retraining and the proactive controller on. The one drift response is
// stale -> retrain -> shadow -> promote, so each regime change can cause
// at most one promotion: promotions never outnumber regime changes.
// Every response is a 200 with finite, unsaturated numbers. Background
// retrains are awaited through /v1/models, so the replay is a pure
// function of the seed. At StaleAfter 16 the first retrain has too few
// rows and ships nothing; the detector must re-arm so the persisting
// drift triggers another one instead of leaving the model stale.
func TestMultiRegimeReplayPromotionsBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model; skipped with -short")
	}
	for _, staleAfter := range []int{40, 16} {
		t.Run(fmt.Sprintf("StaleAfter%d", staleAfter), func(t *testing.T) {
			replayRegimes(t, staleAfter)
		})
	}
}

func replayRegimes(t *testing.T, staleAfter int) {
	store := newFakeStore()
	store.files["pso.json"] = trainedModelJSON(t)
	flog, err := feedback.OpenLogOptions(filepath.Join(t.TempDir(), "telemetry.jsonl"), feedback.LogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { flog.Close() })
	srv := New(Options{
		Store:       store,
		Registry:    RegistryOptions{RetryBase: time.Microsecond},
		FeedbackLog: flog,
		Retrain:     true,
		Proactive:   true,
	})
	srv.detector = feedback.NewDetector(feedback.Options{StaleAfter: staleAfter})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	retrainFailed := obs.Default.Counter("serve.retrain.failed")

	post := func(path, body string) []byte {
		t.Helper()
		status, b := postJSON(t, ts.URL+path, body)
		if status != http.StatusOK {
			t.Fatalf("POST %s: %d %s", path, status, b)
		}
		assertFiniteJSON(t, path, b)
		return b
	}
	// waitRetrain blocks until a background retrain started by a report
	// has either installed a new shadow or ended without one; live and
	// shadow are the versions before that report.
	waitRetrain := func(live, shadow string, failedBefore int64) {
		t.Helper()
		deadline := time.Now().Add(30 * time.Second)
		for {
			l, s := lifecycleView(t, ts.URL)
			if s != "" && (s != shadow || l != live) || retrainFailed.Value() > failedBefore {
				return
			}
			if time.Now().After(deadline) {
				t.Fatal("background retrain never finished")
			}
			time.Sleep(time.Millisecond)
		}
	}

	rng := rand.New(rand.NewSource(1))
	factors := []float64{2, 1, 2, 1, 2, 1}
	const perEpisode = 48
	regimeChanges, promotions, retrains := 0, 0, 0
	prev := 1.0 // the regime the model was trained in
	for _, factor := range factors {
		if factor != prev {
			regimeChanges++
		}
		prev = factor
		for i := 0; i < perEpisode; i++ {
			budget := []float64{5, 10, 15, 20}[rng.Intn(4)]
			swarm := []int{8, 16, 32}[rng.Intn(3)]
			body := post("/v1/dispatch", fmt.Sprintf(
				`{"app": "pso", "budget": %g, "params": {"swarm": %d, "dim": 4}, "model_path": "pso.json"}`,
				budget, swarm))
			var d DispatchResponse
			if err := json.Unmarshal(body, &d); err != nil {
				t.Fatal(err)
			}
			obsv := make([]string, len(d.PhasePredictions))
			for ph, p := range d.PhasePredictions {
				spd := p.Speedup * (1 + 0.02*rng.NormFloat64())
				deg := math.Max(0, p.Degradation*factor*(1+0.02*rng.NormFloat64()))
				obsv[ph] = fmt.Sprintf(`{"phase": %d, "realized_speedup": %g, "realized_degradation": %g}`,
					ph, spd, deg)
			}
			live, shadow := lifecycleView(t, ts.URL)
			failedBefore := retrainFailed.Value()
			fb := post("/v1/feedback", fmt.Sprintf(`{"dispatch_id": %q, "observations": [%s]}`,
				d.DispatchID, strings.Join(obsv, ",")))
			var fr feedbackResponse
			if err := json.Unmarshal(fb, &fr); err != nil {
				t.Fatal(err)
			}
			if fr.Promoted {
				promotions++
			}
			if fr.RetrainStarted {
				retrains++
				waitRetrain(live, shadow, failedBefore)
			}
		}
	}
	t.Logf("%d regime changes, %d retrains, %d promotions", regimeChanges, retrains, promotions)
	if promotions > regimeChanges {
		t.Fatalf("%d promotions over %d regime changes", promotions, regimeChanges)
	}
	if promotions == 0 || retrains < 2 {
		t.Fatal("fewer than two retrains or no promotion: the replay no longer exercises the loop")
	}
}

// lifecycleView returns pso.json's live and shadow versions.
func lifecycleView(t *testing.T, baseURL string) (live, shadow string) {
	t.Helper()
	for _, m := range modelsSnapshot(t, baseURL).Models {
		if m.Name == "pso.json" {
			live = m.LiveVersion
			if m.Shadow != nil {
				shadow = m.Shadow.Version
			}
		}
	}
	return live, shadow
}

// assertFiniteJSON fails when a response body holds a number that is
// not finite or sits at the ±MaxFloat64 saturation bound.
func assertFiniteJSON(t *testing.T, path string, body []byte) {
	t.Helper()
	var v any
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatalf("%s: body does not decode: %v: %s", path, err, body)
	}
	var walk func(any)
	walk = func(v any) {
		switch x := v.(type) {
		case float64:
			if math.IsNaN(x) || math.Abs(x) >= math.MaxFloat64 {
				t.Fatalf("%s: non-finite number %g in %s", path, x, body)
			}
		case []any:
			for _, e := range x {
				walk(e)
			}
		case map[string]any:
			for _, e := range x {
				walk(e)
			}
		}
	}
	walk(v)
}
