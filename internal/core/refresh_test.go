package core

// Tests for the incremental Pareto-front refresh that every calibration
// setter runs, and the feedback-driven global refit (RetrainGlobal) —
// the two core entry points the online retraining pipeline drives.

import (
	"bytes"
	"reflect"
	"testing"

	"opprox/internal/approx"
	"opprox/internal/apps"
)

// TestRefreshFrontLibraryMatchesFullRebuild pins the incremental
// refresh's exactness: after a calibration change touching one phase,
// SetCalibration re-prunes only that phase, and the result is bitwise
// identical to a full library rebuild — calibration enters pruning
// strictly per-phase, so the shortcut is lossless.
func TestRefreshFrontLibraryMatchesFullRebuild(t *testing.T) {
	_, tr := trainToy(t)
	var buf bytes.Buffer
	if err := tr.Save(&buf); err != nil {
		t.Fatal(err)
	}
	load := func() *Trained {
		m, err := LoadTrained(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	incr, full := load(), load()

	// Shift a single phase's calibration; every other phase stays at 0.
	spd := make([]float64, tr.Phases)
	deg := make([]float64, tr.Phases)
	spd[1], deg[1] = 0.25, 0.1
	sig := incr.classSigs()[0]
	before := append([]front(nil), incr.library.classes[sig]...)
	if err := incr.SetCalibration(spd, deg); err != nil {
		t.Fatal(err)
	}
	after := append([]front(nil), incr.library.classes[sig]...)
	for ph := range before {
		// Re-pruning installs a fresh slice; an untouched phase keeps
		// its original one.
		same := &before[ph][0] == &after[ph][0]
		if same == (ph == 1) {
			t.Fatalf("phase %d re-pruned = %v, want only phase 1 re-pruned", ph, !same)
		}
	}

	if err := full.SetCalibration(spd, deg); err != nil {
		t.Fatal(err)
	}
	if err := full.buildFrontLibrary(); err != nil {
		t.Fatal(err)
	}

	var ib, fb bytes.Buffer
	if err := incr.Save(&ib); err != nil {
		t.Fatal(err)
	}
	if err := full.Save(&fb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ib.Bytes(), fb.Bytes()) {
		t.Fatal("incremental refresh diverges bitwise from a full rebuild")
	}

	// Idempotence: nothing shifted since the refresh, so a second call
	// re-prunes nothing.
	if err := incr.refreshFrontLibrary(); err != nil {
		t.Fatal(err)
	}
	for ph, f := range incr.library.classes[sig] {
		if &f[0] != &after[ph][0] {
			t.Fatalf("no-op refresh re-pruned phase %d", ph)
		}
	}

	// Clearing the calibration re-prunes back to the trained fronts.
	if err := incr.ClearCalibration(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(incr.library.classes, load().library.classes) {
		t.Fatal("ClearCalibration left fronts pruned under the old shifts")
	}
}

// shiftedSamples builds feedback rows from the model's own predictions
// with a constant shift on the training scales — realizable telemetry
// whose best global fit is known to exist.
func shiftedSamples(t *testing.T, tr *Trained, sShift, dShift float64) []FeedbackSample {
	t.Helper()
	cfgs := enumerateSpace(tr.Blocks)
	var samples []FeedbackSample
	for _, size := range []float64{10, 20} {
		p := apps.Params{"size": size}
		for ph := 0; ph < tr.Phases; ph++ {
			for i, cfg := range cfgs {
				if i%2 == 1 { // every other config: enough rows, some variety
					continue
				}
				diag, err := tr.DiagnosePhase(p, ph, cfg)
				if err != nil {
					t.Fatal(err)
				}
				samples = append(samples, FeedbackSample{
					Params:      p,
					Levels:      append([]int(nil), cfg...),
					Phase:       ph,
					Speedup:     SpeedupFromScale(diag.SpeedupRaw + sShift),
					Degradation: DegradationFromScale(diag.DegRaw + dShift),
				})
			}
		}
	}
	return samples
}

// TestRetrainGlobalDeterministicRoundTrip refits the global models from
// feedback rows on two clones of the same bytes and requires bitwise
// identical artifacts (the core half of invariant D14), plus a clean
// save/load round trip of the refit model.
func TestRetrainGlobalDeterministicRoundTrip(t *testing.T) {
	_, tr := trainToy(t)
	var buf bytes.Buffer
	if err := tr.Save(&buf); err != nil {
		t.Fatal(err)
	}
	samples := shiftedSamples(t, tr, 0.3, 0.05)

	run := func() []byte {
		clone, err := LoadTrained(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		refit, err := clone.RetrainGlobal(samples, nil, 4, 7)
		if err != nil {
			t.Fatal(err)
		}
		if len(refit) != tr.Phases {
			t.Fatalf("refit phases %v, want all %d", refit, tr.Phases)
		}
		var out bytes.Buffer
		if err := clone.Save(&out); err != nil {
			t.Fatal(err)
		}
		return out.Bytes()
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatal("RetrainGlobal is not deterministic for identical inputs")
	}

	refitted, err := LoadTrained(bytes.NewReader(a))
	if err != nil {
		t.Fatalf("refit model does not round-trip: %v", err)
	}
	// The refit must have absorbed the injected shift: predictions move
	// toward the shifted observations.
	p := apps.Params{"size": 10}
	cfg := approx.Config{1, 1}
	before, err := tr.DiagnosePhase(p, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	after, err := refitted.DiagnosePhase(p, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if after.SpeedupRaw <= before.SpeedupRaw {
		t.Fatalf("refit did not absorb the +0.3 speedup shift: %.4f -> %.4f",
			before.SpeedupRaw, after.SpeedupRaw)
	}

	// Pooled groups: refitting phases {0,1} as one group and {2,3} as
	// another still succeeds and reports every phase refit.
	clone, err := LoadTrained(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	refit, err := clone.RetrainGlobal(samples, [][]int{{0, 1}, {2, 3}}, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(refit) != tr.Phases {
		t.Fatalf("pooled refit phases %v, want all %d", refit, tr.Phases)
	}

	// No rows at all: ErrNoRefit, model untouched.
	clone2, err := LoadTrained(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := clone2.RetrainGlobal(nil, nil, 4, 7); err == nil {
		t.Fatal("RetrainGlobal with no samples must fail")
	}
}
