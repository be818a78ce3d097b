package serve

import (
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// TestRecalibrationOverflowKeepsBodiesFinite is the regression for HTTP
// 500 `json: unsupported value: +Inf` after repeated recalibrations.
// Every promoted recalibration folds its shifts into the live
// calibration (as the retrainer's recalibrate candidate does), so the
// shifts accumulate without bound; once a phase's
// calibrated raw prediction passes ~709, its natural-scale value
// (exp / expm1) overflows, and the dispatch body could not be encoded.
// Each round here recalibrates by a seeded shift, promotes, then
// dispatches and reports feedback: every body must be 200 and hold only
// finite numbers.
func TestRecalibrationOverflowKeepsBodiesFinite(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model; skipped with -short")
	}
	store := newFakeStore()
	store.files["pso.json"] = trainedModelJSON(t)
	srv := New(Options{Store: store, Registry: RegistryOptions{RetryBase: time.Microsecond}})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	if status, body := postJSON(t, ts.URL+"/v1/dispatch", dispatchWithBudget(10)); status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	mgr := srv.Lifecycle()
	rng := rand.New(rand.NewSource(1))
	overflowed := false
	for round := 0; round < 12; round++ {
		spd, deg := make([]float64, 2), make([]float64, 2)
		for ph := range spd {
			spd[ph] = 50 + 100*rng.Float64()
			deg[ph] = 50 + 100*rng.Float64()
		}
		recalibratedShadow(t, srv, "pso.json", spd, deg)
		if err := mgr.Promote("pso.json"); err != nil {
			t.Fatal(err)
		}
		status, body := postJSON(t, ts.URL+"/v1/dispatch", dispatchWithBudget(float64(11+round)))
		if status != http.StatusOK {
			t.Fatalf("round %d: dispatch status %d: %s", round, status, body)
		}
		var resp DispatchResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatalf("round %d: %v: %s", round, err, body)
		}
		for ph, pp := range resp.PhasePredictions {
			if pp.Speedup == math.MaxFloat64 || pp.Degradation == math.MaxFloat64 {
				overflowed = true
			}
			if math.IsInf(pp.Speedup, 0) || math.IsInf(pp.Degradation, 0) {
				t.Fatalf("round %d phase %d: non-finite prediction %+v", round, ph, pp)
			}
		}
		if status, fb := postJSON(t, ts.URL+"/v1/feedback", driftedFeedback(resp.DispatchID)); status != http.StatusOK {
			t.Fatalf("round %d: feedback status %d: %s", round, status, fb)
		}
	}
	if !overflowed {
		t.Fatal("no phase prediction overflowed: the shifts no longer reach the overflow this test reproduces")
	}
}

// TestSaturateKeepsFiniteBits pins saturate to the identity, bit for
// bit, on finite values, so bodies that already encoded keep their bytes.
func TestSaturateKeepsFiniteBits(t *testing.T) {
	for _, v := range []float64{0, math.Copysign(0, -1), -1, 1e-300, 4.4868, 1e308, math.MaxFloat64, -math.MaxFloat64} {
		if got := saturate(v); math.Float64bits(got) != math.Float64bits(v) {
			t.Errorf("saturate(%g) = %g", v, got)
		}
	}
	if got := saturate(math.Inf(1)); got != math.MaxFloat64 {
		t.Errorf("saturate(+Inf) = %g", got)
	}
	if got := saturate(math.Inf(-1)); got != -math.MaxFloat64 {
		t.Errorf("saturate(-Inf) = %g", got)
	}
}
