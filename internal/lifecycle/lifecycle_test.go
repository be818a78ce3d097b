package lifecycle

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"opprox/internal/approx"
	"opprox/internal/apps"
	"opprox/internal/apps/pso"
	"opprox/internal/core"
	"opprox/internal/feedback"
)

var (
	modelOnce  sync.Once
	modelBytes []byte
)

// modelJSON trains one small real model (shared across tests) so version
// hashing, recalibration and diagnosis all run against genuine bytes.
func modelJSON(t *testing.T) []byte {
	t.Helper()
	modelOnce.Do(func() {
		opts := core.DefaultOptions()
		opts.Phases = 2
		opts.JointSamplesPerPhase = 6
		opts.MaxParamCombos = 3
		opts.Folds = 5
		tr, err := core.Train(apps.NewRunner(pso.New()), opts)
		if err != nil {
			panic(err)
		}
		var buf bytes.Buffer
		if err := tr.Save(&buf); err != nil {
			panic(err)
		}
		modelBytes = buf.Bytes()
	})
	return modelBytes
}

// fakeReg is an in-memory Registry.
type fakeReg struct {
	mu    sync.Mutex
	files map[string][]byte
}

func newFakeReg() *fakeReg {
	return &fakeReg{files: map[string][]byte{}}
}

func (r *fakeReg) ReadAll(_ context.Context, name string) ([]byte, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	b, ok := r.files[name]
	if !ok {
		return nil, fmt.Errorf("fakeReg: no file %q", name)
	}
	return append([]byte(nil), b...), nil
}

// fakePub is an in-memory Publisher.
type fakePub struct {
	mu    sync.Mutex
	files map[string][]byte
}

func newFakePub() *fakePub { return &fakePub{files: map[string][]byte{}} }

func (p *fakePub) Put(name string, data []byte) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.files[name] = append([]byte(nil), data...)
	return nil
}

func (p *fakePub) get(name string) ([]byte, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	b, ok := p.files[name]
	return b, ok
}

func newTestManager(t *testing.T, opts Options) (*Manager, *fakeReg, *fakePub) {
	t.Helper()
	reg := newFakeReg()
	reg.files["pso.json"] = modelJSON(t)
	pub := newFakePub()
	return NewManager(reg, pub, opts), reg, pub
}

func TestLiveResolvesAndVersions(t *testing.T) {
	m, _, _ := newTestManager(t, Options{})
	tr, ver, err := m.Live(context.Background(), "pso.json")
	if err != nil {
		t.Fatal(err)
	}
	if want := Version(modelJSON(t)); ver != want {
		t.Fatalf("live version %q, want content hash %q", ver, want)
	}
	if again, _, _ := m.Live(context.Background(), "pso.json"); tr == nil || again != tr {
		t.Fatal("second resolve did not return the cached live model")
	}

	// Unknown models error on the mutating surface and stay invisible on
	// the read surface — no state is fabricated.
	if _, _, err := m.Live(context.Background(), "missing.json"); err == nil {
		t.Fatal("missing model resolved")
	}
	if _, err := m.CreateShadowFromBytes("missing.json", modelJSON(t)); !errors.Is(err, ErrUnknownModel) {
		t.Fatalf("CreateShadowFromBytes err = %v, want ErrUnknownModel", err)
	}
	if err := m.Promote("missing.json"); !errors.Is(err, ErrUnknownModel) {
		t.Fatalf("Promote err = %v, want ErrUnknownModel", err)
	}
	if err := m.Rollback("missing.json"); !errors.Is(err, ErrUnknownModel) {
		t.Fatalf("Rollback err = %v, want ErrUnknownModel", err)
	}
	if got := m.Models(); !reflect.DeepEqual(got, []string{"pso.json"}) {
		t.Fatalf("Models = %v, want only the resolved pso.json", got)
	}
	// The failed resolve must not leave a poisoned slot behind.
	if _, _, err := m.Live(context.Background(), "pso.json"); err != nil {
		t.Fatalf("healthy model unresolvable after a failed neighbor: %v", err)
	}
}

// recalibrated builds the live model's bytes with per-phase shifts folded
// into its calibration — a deterministic candidate of the kind the
// retrainer's recalibrate candidate produces.
func recalibrated(t *testing.T, m *Manager, name string, spd, deg []float64) []byte {
	t.Helper()
	raw, _, ok := m.LiveRaw(name)
	if !ok {
		t.Fatalf("model %s not resolved", name)
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
	return buf.Bytes()
}

// shadowOf dark-launches a recalibrated candidate and returns its version.
func shadowOf(t *testing.T, m *Manager, name string, spd, deg []float64) string {
	t.Helper()
	ver, err := m.CreateShadowFromBytes(name, recalibrated(t, m, name, spd, deg))
	if err != nil {
		t.Fatal(err)
	}
	return ver
}

func shifts(phases int, v float64) ([]float64, []float64) {
	spd := make([]float64, phases)
	deg := make([]float64, phases)
	for i := range spd {
		spd[i] = v
		deg[i] = -v / 2
	}
	return spd, deg
}

func TestCreateShadowPromoteRollback(t *testing.T) {
	m, _, pub := newTestManager(t, Options{})
	_, liveVer, err := m.Live(context.Background(), "pso.json")
	if err != nil {
		t.Fatal(err)
	}

	if err := m.Rollback("pso.json"); !errors.Is(err, ErrNoPrevious) {
		t.Fatalf("rollback err = %v, want ErrNoPrevious", err)
	}
	// Candidates identical to live, or not a model at all, are rejected.
	if _, err := m.CreateShadowFromBytes("pso.json", modelJSON(t)); !errors.Is(err, ErrIdenticalToLive) {
		t.Fatalf("identical candidate err = %v, want ErrIdenticalToLive", err)
	}
	if _, err := m.CreateShadowFromBytes("pso.json", []byte("{}")); err == nil {
		t.Fatal("invalid candidate bytes accepted")
	}

	spd, deg := shifts(2, 0.05)
	cand := recalibrated(t, m, "pso.json", spd, deg)
	shVer, err := m.CreateShadowFromBytes("pso.json", cand)
	if err != nil {
		t.Fatal(err)
	}
	if shVer == liveVer {
		t.Fatal("shadow version equals live version")
	}
	if _, ok := pub.get(VersionedName("pso.json", shVer)); !ok {
		t.Fatal("shadow bytes not persisted under the versioned name")
	}
	// The same candidate again keeps the one under evaluation.
	again, err := m.CreateShadowFromBytes("pso.json", cand)
	if err != nil || again != shVer {
		t.Fatalf("repeated CreateShadowFromBytes = (%q, %v), want existing %q", again, err, shVer)
	}
	if snap := m.Snapshot(); snap[0].Shadow == nil || snap[0].Shadow.Version != shVer {
		t.Fatalf("snapshot shadow = %+v, want %q", snap[0].Shadow, shVer)
	}

	// Promote: shadow becomes live, old live is kept for rollback, the
	// base store name now holds the promoted bytes.
	if err := m.Promote("pso.json"); err != nil {
		t.Fatal(err)
	}
	_, nowVer, err := m.Live(context.Background(), "pso.json")
	if err != nil {
		t.Fatal(err)
	}
	if nowVer != shVer {
		t.Fatalf("live after promote = %q, want shadow %q", nowVer, shVer)
	}
	base, ok := pub.get("pso.json")
	if !ok || Version(base) != shVer {
		t.Fatal("base store name does not hold the promoted bytes")
	}
	if prev, ok := pub.get(VersionedName("pso.json", liveVer)); !ok || Version(prev) != liveVer {
		t.Fatal("outgoing live version not preserved under its versioned name")
	}
	if got := m.Models(); !reflect.DeepEqual(got, []string{"pso.json"}) {
		t.Fatalf("Models after promote = %v", got)
	}
	snap := m.Snapshot()
	if len(snap) != 1 || snap[0].LiveVersion != shVer ||
		snap[0].PreviousVersion != liveVer || snap[0].Shadow != nil {
		t.Fatalf("snapshot after promote: %+v", snap)
	}
	if err := m.Promote("pso.json"); !errors.Is(err, ErrNoShadow) {
		t.Fatalf("promote without shadow err = %v, want ErrNoShadow", err)
	}

	// Rollback restores the prior version in one step, and is itself
	// reversible (the rolled-back-from version becomes previous).
	if err := m.Rollback("pso.json"); err != nil {
		t.Fatal(err)
	}
	_, backVer, _ := m.Live(context.Background(), "pso.json")
	if backVer != liveVer {
		t.Fatalf("live after rollback = %q, want original %q", backVer, liveVer)
	}
	if base, _ := pub.get("pso.json"); Version(base) != liveVer {
		t.Fatal("rollback did not republish the base name")
	}
	if err := m.Rollback("pso.json"); err != nil {
		t.Fatal(err)
	}
	_, forwardVer, _ := m.Live(context.Background(), "pso.json")
	if forwardVer != shVer {
		t.Fatalf("second rollback = %q, want %q (reversal)", forwardVer, shVer)
	}
}

// driftedRecord builds a DispatchRecord for the live model plus feedback
// observations whose realized values sit exactly `shift` above the live
// raw predictions — the world the shadow's calibration was built for.
func driftedRecord(t *testing.T, m *Manager, shiftSpd, shiftDeg float64) (*feedback.DispatchRecord, []feedback.PhaseObservation) {
	t.Helper()
	live, ver, err := m.Live(context.Background(), "pso.json")
	if err != nil {
		t.Fatal(err)
	}
	params := apps.DefaultParams(pso.New())
	levels := make([][]int, live.Phases)
	diags := make([]core.PhaseDiag, live.Phases)
	obsv := make([]feedback.PhaseObservation, live.Phases)
	for ph := 0; ph < live.Phases; ph++ {
		levels[ph] = make([]int, len(live.Blocks))
		d, err := live.DiagnosePhase(params, ph, approx.Config(levels[ph]))
		if err != nil {
			t.Fatal(err)
		}
		diags[ph] = d
		obsv[ph] = feedback.PhaseObservation{
			Phase:       ph,
			Speedup:     core.SpeedupFromScale(d.SpeedupRaw + shiftSpd),
			Degradation: core.DegradationFromScale(d.DegRaw + shiftDeg),
		}
	}
	rec := &feedback.DispatchRecord{
		ID: "d1", Model: "pso.json", Version: ver, App: "pso",
		Params: params, Phases: live.Phases, Levels: levels, Diags: diags,
	}
	return rec, obsv
}

func TestFeedbackAutoPromote(t *testing.T) {
	m, _, _ := newTestManager(t, Options{ErrWindow: 8, MinShadowSamples: 4})
	const shift = 0.2
	rec, obsv := driftedRecord(t, m, shift, shift)

	// The shadow carries exactly the correction the drifted world needs,
	// so its realized error is ~0 while the live error is ~shift.
	shVer := shadowOf(t, m, "pso.json", []float64{shift, shift}, []float64{shift, shift})

	var promoted bool
	var err error
	for i := 0; i < 4 && !promoted; i++ {
		promoted, err = m.Feedback(rec, obsv)
		if err != nil {
			t.Fatal(err)
		}
	}
	if !promoted {
		t.Fatal("shadow with strictly better realized error never auto-promoted")
	}
	_, ver, _ := m.Live(context.Background(), "pso.json")
	if ver != shVer {
		t.Fatalf("live after auto-promote = %q, want %q", ver, shVer)
	}
}

func TestFeedbackRespectsGates(t *testing.T) {
	// Auto-promotion disabled: windows fill, state is visible, no swap.
	m, _, _ := newTestManager(t, Options{ErrWindow: 8, MinShadowSamples: 2, DisableAutoPromote: true})
	const shift = 0.2
	rec, obsv := driftedRecord(t, m, shift, shift)
	shadowOf(t, m, "pso.json", []float64{shift, shift}, []float64{shift, shift})
	for i := 0; i < 5; i++ {
		if promoted, err := m.Feedback(rec, obsv); err != nil || promoted {
			t.Fatalf("Feedback = (%v, %v) with auto-promote disabled", promoted, err)
		}
	}
	snap := m.Snapshot()
	if len(snap) != 1 || snap[0].Shadow == nil {
		t.Fatalf("snapshot lost the shadow: %+v", snap)
	}
	sh := snap[0].Shadow
	if sh.Samples == 0 || sh.ShadowWindowErr >= sh.LiveWindowErr {
		t.Fatalf("comparison windows wrong: %+v", sh)
	}

	// A worse shadow never auto-promotes.
	m2, _, _ := newTestManager(t, Options{ErrWindow: 8, MinShadowSamples: 2})
	rec2, obsv2 := driftedRecord(t, m2, 0, 0) // reality matches live exactly
	shadowOf(t, m2, "pso.json", []float64{0.3, 0.3}, []float64{0.3, 0.3})
	for i := 0; i < 6; i++ {
		if promoted, err := m2.Feedback(rec2, obsv2); err != nil || promoted {
			t.Fatalf("worse shadow auto-promoted (iteration %d)", i)
		}
	}

	// Feedback for a stale version (dispatch predates a swap) is ignored.
	m3, _, _ := newTestManager(t, Options{ErrWindow: 8, MinShadowSamples: 1})
	rec3, obsv3 := driftedRecord(t, m3, shift, shift)
	shadowOf(t, m3, "pso.json", []float64{shift, shift}, []float64{shift, shift})
	rec3.Version = "stale0stale0"
	for i := 0; i < 4; i++ {
		if promoted, err := m3.Feedback(rec3, obsv3); err != nil || promoted {
			t.Fatal("stale-version feedback influenced promotion")
		}
	}
	if m3.Snapshot()[0].Shadow.Samples != 0 {
		t.Fatal("stale-version feedback filled the comparison windows")
	}
}

func TestReload(t *testing.T) {
	m, reg, _ := newTestManager(t, Options{})
	ctx := context.Background()
	_, liveVer, err := m.Live(ctx, "pso.json")
	if err != nil {
		t.Fatal(err)
	}
	// Same bytes: no change.
	changed, err := m.Reload(ctx, "pso.json")
	if err != nil || changed {
		t.Fatalf("Reload of identical bytes = (%v, %v)", changed, err)
	}

	// New bytes behind the same name: reload installs them as live and
	// retains the old version for rollback.
	tr, err := core.LoadTrained(bytes.NewReader(modelJSON(t)))
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.SetCalibration([]float64{0.01, 0.02}, []float64{0, 0}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.Save(&buf); err != nil {
		t.Fatal(err)
	}
	reg.mu.Lock()
	reg.files["pso.json"] = buf.Bytes()
	reg.mu.Unlock()

	changed, err = m.Reload(ctx, "pso.json")
	if err != nil || !changed {
		t.Fatalf("Reload of new bytes = (%v, %v)", changed, err)
	}
	_, nowVer, _ := m.Live(ctx, "pso.json")
	if nowVer != Version(buf.Bytes()) || nowVer == liveVer {
		t.Fatalf("reloaded version %q", nowVer)
	}
	snap := m.Snapshot()
	if snap[0].PreviousVersion != liveVer {
		t.Fatalf("reload lost the rollback version: %+v", snap)
	}
	if err := m.Rollback("pso.json"); err != nil {
		t.Fatal(err)
	}
	if _, backVer, _ := m.Live(ctx, "pso.json"); backVer != liveVer {
		t.Fatalf("rollback after reload = %q, want %q", backVer, liveVer)
	}

	// Reload of a never-resolved name is a plain resolve.
	reg.mu.Lock()
	reg.files["other.json"] = modelJSON(t)
	reg.mu.Unlock()
	if changed, err := m.Reload(ctx, "other.json"); err != nil || !changed {
		t.Fatalf("first-resolve Reload = (%v, %v)", changed, err)
	}
}

// TestSnapshotDeterministic pins that the lifecycle view is a pure
// function of the operation sequence: same operations, same snapshot —
// including order (sorted by name, not map order).
func TestSnapshotDeterministic(t *testing.T) {
	build := func() []ModelStatus {
		reg := newFakeReg()
		reg.files["b.json"] = modelJSON(t)
		reg.files["a.json"] = modelJSON(t)
		m := NewManager(reg, newFakePub(), Options{ErrWindow: 4, MinShadowSamples: 2})
		ctx := context.Background()
		for _, name := range []string{"b.json", "a.json"} {
			if _, _, err := m.Live(ctx, name); err != nil {
				t.Fatal(err)
			}
		}
		shadowOf(t, m, "a.json", []float64{0.1, 0.1}, []float64{0.1, 0.1})
		shadowOf(t, m, "b.json", []float64{0.2, 0.2}, []float64{0.2, 0.2})
		if err := m.Promote("b.json"); err != nil {
			t.Fatal(err)
		}
		return m.Snapshot()
	}
	s1, s2 := build(), build()
	if !reflect.DeepEqual(s1, s2) {
		t.Fatalf("snapshots differ:\n%+v\n%+v", s1, s2)
	}
	if len(s1) != 2 || s1[0].Name != "a.json" || s1[1].Name != "b.json" {
		t.Fatalf("snapshot not sorted by name: %+v", s1)
	}
}

// TestConcurrentLifecycle exercises resolve/peek/feedback/snapshot under
// parallel load; the race detector is the assertion.
func TestConcurrentLifecycle(t *testing.T) {
	m, _, _ := newTestManager(t, Options{ErrWindow: 8, MinShadowSamples: 1 << 30})
	rec, obsv := driftedRecord(t, m, 0.1, 0.1)
	shadowOf(t, m, "pso.json", []float64{0.1, 0.1}, []float64{0.1, 0.1})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if _, _, err := m.Live(context.Background(), "pso.json"); err != nil {
					t.Error(err)
					return
				}
				if _, err := m.Feedback(rec, obsv); err != nil {
					t.Error(err)
					return
				}
				m.Snapshot()
			}
		}()
	}
	wg.Wait()
}
