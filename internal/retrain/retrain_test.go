package retrain

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"opprox/internal/approx"
	"opprox/internal/apps"
	"opprox/internal/apps/vidpipe"
	"opprox/internal/core"
	"opprox/internal/feedback"
	"opprox/internal/launch"
	"opprox/internal/lifecycle"
)

// trainedModel trains one small vidpipe model set, cached across tests
// (vidpipe's trained predictions stay inside the invertible range of
// the natural scales for its own served schedules, so residual-exact
// synthetic telemetry is constructible).
var trainedOnce sync.Once
var trainedBytes []byte

func trainedModel(t testing.TB) []byte {
	t.Helper()
	trainedOnce.Do(func() {
		opts := core.DefaultOptions()
		opts.Phases = 2
		opts.JointSamplesPerPhase = 6
		opts.MaxParamCombos = 3
		opts.Folds = 5
		tr, err := core.Train(apps.NewRunner(vidpipe.New()), opts)
		if err != nil {
			panic(err)
		}
		var buf bytes.Buffer
		if err := tr.Save(&buf); err != nil {
			panic(err)
		}
		trainedBytes = buf.Bytes()
	})
	return trainedBytes
}

func loadModel(t testing.TB) *core.Trained {
	t.Helper()
	tr, err := core.LoadTrained(bytes.NewReader(trainedModel(t)))
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// servedSchedule plans one dispatch against the model, yielding valid
// (params, per-phase levels) context for synthetic telemetry.
func servedSchedule(t testing.TB, tr *core.Trained, budget float64) (apps.Params, [][]int) {
	t.Helper()
	app := vidpipe.New()
	params := apps.DefaultParams(app)
	plan, err := launch.DispatchTrained(&launch.JobConfig{
		App: app.Name(), Budget: budget, Params: params, ModelPath: "m.json",
	}, tr)
	if err != nil {
		t.Fatal(err)
	}
	levels := make([][]int, plan.Schedule.Phases)
	for ph, cfg := range plan.Schedule.Levels {
		levels[ph] = append([]int(nil), cfg...)
	}
	return params, levels
}

// writeTelemetry appends n reports (one entry per phase each) for the
// model: realized values equal the model's own predictions, with sShift
// added on the speedup log scale from report shiftAt onward (-1: never).
func writeTelemetry(t testing.TB, l *feedback.Log, tr *core.Trained, model string, n, shiftAt int, sShift float64) {
	t.Helper()
	params, levels := servedSchedule(t, tr, 10)
	for i := 0; i < n; i++ {
		for ph := range levels {
			diag, err := tr.DiagnosePhase(params, ph, approx.Config(levels[ph]))
			if err != nil {
				t.Fatal(err)
			}
			s := diag.SpeedupRaw
			if shiftAt >= 0 && i >= shiftAt {
				s += sShift
			}
			err = l.Append(feedback.Entry{
				DispatchID:  fmt.Sprintf("d%04d", i),
				Model:       model,
				Version:     "v0",
				App:         "vidpipe",
				Budget:      10,
				Params:      params,
				Levels:      levels[ph],
				Phase:       ph,
				Speedup:     core.SpeedupFromScale(s),
				Degradation: core.DegradationFromScale(diag.DegRaw),
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestExtractOrderBoundingBackfill(t *testing.T) {
	path := filepath.Join(t.TempDir(), "telemetry.jsonl")
	l, err := feedback.OpenLogOptions(path, feedback.LogOptions{MaxBytes: 400})
	if err != nil {
		t.Fatal(err)
	}
	params := apps.Params{"x": 1}
	// Interleave: target-model entries with context, other-model noise,
	// and context-free entries (written by a build that predates
	// context-carrying telemetry), which decode but are skipped.
	for i := 0; i < 40; i++ {
		e := feedback.Entry{
			DispatchID: fmt.Sprintf("z%02d", 40-i), // IDs descend as seq ascends
			Model:      "m",
			Phase:      i % 2,
			Speedup:    1.5,
		}
		switch {
		case i%4 == 1:
			e.Model = "other"
		case i%4 == 2:
			e.DispatchID = fmt.Sprintf("nf%02d", i) // context-free
		case i%4 == 3:
			e.DispatchID = "gone" // context-free
		default:
			e.Params = params
			e.Levels = []int{1, 0}
		}
		if err := l.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	m, err := Extract(path, ExtractOptions{Model: "m"})
	if err != nil {
		t.Fatal(err)
	}
	if m.Total != 30 { // 40 minus the 10 "other" entries
		t.Fatalf("Total = %d, want 30", m.Total)
	}
	if m.Skipped != 20 { // the two context-free quarters
		t.Fatalf("Skipped = %d, want 20", m.Skipped)
	}
	if len(m.Rows) != 10 {
		t.Fatalf("rows = %d, want 10", len(m.Rows))
	}
	for i := 1; i < len(m.Rows); i++ {
		a, b := m.Rows[i-1], m.Rows[i]
		if a.DispatchID > b.DispatchID ||
			(a.DispatchID == b.DispatchID && a.Phase > b.Phase) {
			t.Fatalf("rows not in dispatch order at %d: %+v then %+v", i, a, b)
		}
	}
	for _, r := range m.Rows {
		if len(r.Params) == 0 || len(r.Levels) == 0 {
			t.Fatalf("row without context survived extraction: %+v", r)
		}
	}

	// Bounding keeps the most recent rows by seq regardless of ID order.
	bounded, err := Extract(path, ExtractOptions{Model: "m", MaxRows: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(bounded.Rows) != 5 {
		t.Fatalf("bounded rows = %d, want 5", len(bounded.Rows))
	}
	minSeq := bounded.Rows[0].Seq
	for _, r := range bounded.Rows {
		if r.Seq < minSeq {
			minSeq = r.Seq
		}
	}
	for _, r := range m.Rows {
		keep := false
		for _, b := range bounded.Rows {
			if b.Seq == r.Seq {
				keep = true
			}
		}
		if r.Seq >= minSeq != keep {
			t.Fatalf("bounding did not keep the seq tail: seq %d keep=%v minSeq=%d", r.Seq, keep, minSeq)
		}
	}
}

func TestRedetectChangepointAndGrouping(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model; skipped with -short")
	}
	tr := loadModel(t)
	dir := t.TempDir()

	// Faithful-only telemetry: no changepoint, no divergence, singleton
	// groups.
	cleanPath := filepath.Join(dir, "clean.jsonl")
	cl, err := feedback.OpenLogOptions(cleanPath, feedback.LogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	writeTelemetry(t, cl, tr, "m", 30, -1, 0)
	cl.Close()
	m, err := Extract(cleanPath, ExtractOptions{Model: "m"})
	if err != nil {
		t.Fatal(err)
	}
	seg, err := Redetect(tr, m.Rows, 0.15, 8)
	if err != nil {
		t.Fatal(err)
	}
	if seg.Diverged || seg.Changepoint != -1 {
		t.Fatalf("faithful telemetry flagged: %+v", seg)
	}
	if len(seg.Groups) != tr.Phases {
		t.Fatalf("faithful telemetry pooled phases: %v", seg.Groups)
	}

	// Mid-stream shift on every phase: the changepoint lands at the
	// shift, pre-shift rows are trimmed, and phases drifting together
	// merge into one pooled group.
	shiftPath := filepath.Join(dir, "shift.jsonl")
	sl, err := feedback.OpenLogOptions(shiftPath, feedback.LogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	writeTelemetry(t, sl, tr, "m", 40, 20, 0.5)
	sl.Close()
	m2, err := Extract(shiftPath, ExtractOptions{Model: "m"})
	if err != nil {
		t.Fatal(err)
	}
	seg2, err := Redetect(tr, m2.Rows, 0.15, 8)
	if err != nil {
		t.Fatal(err)
	}
	wantCP := 20 * tr.Phases // rows per report = phases
	if seg2.Changepoint != wantCP {
		t.Fatalf("changepoint = %d, want %d", seg2.Changepoint, wantCP)
	}
	if !seg2.Diverged {
		t.Fatal("uniform shift not flagged as divergence")
	}
	if len(seg2.Post) != 40*tr.Phases-wantCP {
		t.Fatalf("post-change rows = %d, want %d", len(seg2.Post), 40*tr.Phases-wantCP)
	}
	if len(seg2.Groups) != 1 || len(seg2.Groups[0]) != tr.Phases {
		t.Fatalf("phases drifting together not pooled: %v", seg2.Groups)
	}

	// Determinism: the same rows re-detect identically.
	seg3, err := Redetect(tr, m2.Rows, 0.15, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seg2, seg3) {
		t.Fatal("Redetect is not deterministic")
	}
}

// TestRetrainDeterminismD14 is the byte-determinism invariant: the same
// telemetry prefix yields byte-identical winning artifacts — across
// runs, and across a rotated vs unrotated log holding the same stream.
func TestRetrainDeterminismD14(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model; skipped with -short")
	}
	tr := loadModel(t)
	dir := t.TempDir()

	write := func(name string, opts feedback.LogOptions) string {
		path := filepath.Join(dir, name)
		l, err := feedback.OpenLogOptions(path, opts)
		if err != nil {
			t.Fatal(err)
		}
		writeTelemetry(t, l, tr, "m", 40, 20, 0.5)
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		return path
	}
	plain := write("plain.jsonl", feedback.LogOptions{})
	rotated := write("rot.jsonl", feedback.LogOptions{MaxBytes: 1 << 10})

	run := func(path string) *Result {
		m, err := Extract(path, ExtractOptions{Model: "m"})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Retrain(trainedModel(t), m)
		if err != nil {
			t.Fatal(err)
		}
		if res.Winner == "" || len(res.Raw) == 0 {
			t.Fatalf("no winner: %+v", res)
		}
		return res
	}
	a, b := run(plain), run(plain)
	if a.Version != b.Version || !bytes.Equal(a.Raw, b.Raw) {
		t.Fatal("identical telemetry produced different artifacts (D14 violated)")
	}
	c := run(rotated)
	if c.Version != a.Version || !bytes.Equal(c.Raw, a.Raw) {
		t.Fatal("rotated log produced a different artifact than the unrotated stream (D14 violated)")
	}
	if ver := lifecycle.Version(a.Raw); ver != a.Version {
		t.Fatalf("winner version %q is not the content hash %q", a.Version, ver)
	}
	// The winner must actually load and differ from live.
	if _, err := core.LoadTrained(bytes.NewReader(a.Raw)); err != nil {
		t.Fatalf("winner does not round-trip: %v", err)
	}
	if a.Version == a.LiveVersion {
		t.Fatal("winner is the live version")
	}
}

func TestRetrainInsufficientData(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model; skipped with -short")
	}
	tr := loadModel(t)
	path := filepath.Join(t.TempDir(), "telemetry.jsonl")
	l, err := feedback.OpenLogOptions(path, feedback.LogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	writeTelemetry(t, l, tr, "m", 3, -1, 0)
	l.Close()
	m, err := Extract(path, ExtractOptions{Model: "m"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Retrain(trainedModel(t), m); !errors.Is(err, ErrInsufficientData) {
		t.Fatalf("err = %v, want ErrInsufficientData", err)
	}
}

// fakeSource / fakePub satisfy the Retrainer's structural interfaces
// without a lifecycle manager.
type fakeSource struct{ raw []byte }

func (s fakeSource) LiveRaw(name string) ([]byte, string, bool) {
	if name != "m" {
		return nil, "", false
	}
	return s.raw, lifecycle.Version(s.raw), true
}

type fakePub struct {
	mu       sync.Mutex
	versions []string
}

func (p *fakePub) CreateShadowFromBytes(name string, raw []byte) (string, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	v := lifecycle.Version(raw)
	p.versions = append(p.versions, v)
	return v, nil
}

func TestRetrainerRunAndCoalesce(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model; skipped with -short")
	}
	tr := loadModel(t)
	path := filepath.Join(t.TempDir(), "telemetry.jsonl")
	l, err := feedback.OpenLogOptions(path, feedback.LogOptions{MaxBytes: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	writeTelemetry(t, l, tr, "m", 40, 20, 0.5)
	l.Close()

	pub := &fakePub{}
	r, err := NewRetrainer(Config{LogPath: path, Source: fakeSource{raw: trainedModel(t)}, Pub: pub})
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run("m")
	if err != nil {
		t.Fatal(err)
	}
	if res.ShadowVersion == "" || res.ShadowVersion != res.Version {
		t.Fatalf("shadow not dark-launched: %+v", res)
	}
	pub.mu.Lock()
	published := len(pub.versions)
	pub.mu.Unlock()
	if published != 1 {
		t.Fatalf("published %d shadows, want 1", published)
	}

	if _, err := r.Run("nope"); !errors.Is(err, ErrUnknownModel) {
		t.Fatalf("unknown model: %v", err)
	}

	// Coalescing: with the model's run lock held, TryRun bails instead of
	// queueing.
	mr := r.run("m")
	mr.mu.Lock()
	if _, err := r.TryRun("m"); !errors.Is(err, ErrRetrainInFlight) {
		t.Fatalf("TryRun under an in-flight run: %v", err)
	}
	mr.mu.Unlock()
	if _, err := r.TryRun("m"); err != nil {
		t.Fatalf("TryRun after the run finished: %v", err)
	}
}
