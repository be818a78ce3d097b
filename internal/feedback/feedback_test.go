package feedback

import (
	"math"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
)

func TestReportValidate(t *testing.T) {
	good := Report{
		DispatchID: "d1",
		Observations: []PhaseObservation{
			{Phase: 0, Speedup: 1.2, Degradation: 3},
			{Phase: 1, Speedup: 0.9, Degradation: 0},
		},
	}
	if err := good.Validate(2); err != nil {
		t.Fatalf("valid report rejected: %v", err)
	}

	bad := []Report{
		{Observations: []PhaseObservation{{Phase: 0, Speedup: 1, Degradation: 0}}},
		{DispatchID: "d"},
		{DispatchID: "d", Observations: []PhaseObservation{{Phase: 2, Speedup: 1, Degradation: 0}}},
		{DispatchID: "d", Observations: []PhaseObservation{{Phase: -1, Speedup: 1, Degradation: 0}}},
		{DispatchID: "d", Observations: []PhaseObservation{
			{Phase: 0, Speedup: 1, Degradation: 0}, {Phase: 0, Speedup: 1, Degradation: 0}}},
		{DispatchID: "d", Observations: []PhaseObservation{{Phase: 0, Speedup: 0, Degradation: 0}}},
		{DispatchID: "d", Observations: []PhaseObservation{{Phase: 0, Speedup: -2, Degradation: 0}}},
		{DispatchID: "d", Observations: []PhaseObservation{{Phase: 0, Speedup: math.NaN(), Degradation: 0}}},
		{DispatchID: "d", Observations: []PhaseObservation{{Phase: 0, Speedup: math.Inf(1), Degradation: 0}}},
		{DispatchID: "d", Observations: []PhaseObservation{{Phase: 0, Speedup: 1, Degradation: -1}}},
		{DispatchID: "d", Observations: []PhaseObservation{{Phase: 0, Speedup: 1, Degradation: math.NaN()}}},
	}
	for i, r := range bad {
		if err := r.Validate(2); err == nil {
			t.Errorf("case %d: invalid report accepted: %+v", i, r)
		}
	}
}

func TestRecordsFIFOEviction(t *testing.T) {
	r := NewRecords(3)
	for _, id := range []string{"a", "b", "c"} {
		r.Put(&DispatchRecord{ID: id})
	}
	// Duplicate insert neither grows nor reorders.
	r.Put(&DispatchRecord{ID: "a"})
	if r.Len() != 3 {
		t.Fatalf("Len = %d, want 3", r.Len())
	}
	r.Put(&DispatchRecord{ID: "d"}) // evicts a
	if _, ok := r.Get("a"); ok {
		t.Fatal("oldest record survived eviction")
	}
	for _, id := range []string{"b", "c", "d"} {
		if _, ok := r.Get(id); !ok {
			t.Fatalf("record %q lost", id)
		}
	}
}

func TestLogAppendReadAndResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "telemetry.jsonl")
	l, err := OpenLogOptions(path, LogOptions{Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := l.Append(Entry{DispatchID: "d", Model: "m", Phase: i, Speedup: 1.5, SpeedupRes: 0.1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	entries, err := ReadLogFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 {
		t.Fatalf("read %d entries, want 3", len(entries))
	}
	for i, e := range entries {
		if e.Seq != uint64(i+1) || e.Phase != i {
			t.Fatalf("entry %d = %+v, want seq %d phase %d", i, e, i+1, i)
		}
	}

	// Reopening resumes the sequence past the existing tail.
	l2, err := OpenLogOptions(path, LogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l2.Append(Entry{DispatchID: "d2", Model: "m", Phase: 0}); err != nil {
		t.Fatal(err)
	}
	l2.Close()
	entries, err = ReadLogFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := entries[len(entries)-1].Seq; got != 4 {
		t.Fatalf("resumed seq = %d, want 4", got)
	}

	// A nil log is a valid no-op sink.
	var nilLog *Log
	if err := nilLog.Append(Entry{}); err != nil {
		t.Fatal(err)
	}
	if err := nilLog.Close(); err != nil {
		t.Fatal(err)
	}
}

// exceedSample builds a drifted observation outside the band.
func exceedSample(phase int, res float64) Sample {
	return Sample{Phase: phase, SpeedupResidual: res, DegResidual: res,
		SpeedupExceeded: true, DegExceeded: true}
}

func inBandSample(phase int) Sample {
	return Sample{Phase: phase}
}

func TestDetectorExceedanceTrigger(t *testing.T) {
	d := NewDetector(Options{Window: 4, MinSamples: 2, MaxExceedFrac: 0.5,
		CUSUMThreshold: 1e9, StaleAfter: 1000})
	if st := d.State("m"); st != Healthy {
		t.Fatalf("initial state %v", st)
	}
	st, trans := d.Observe("m", []Sample{inBandSample(0)})
	if st != Healthy || len(trans) != 0 {
		t.Fatalf("in-band sample moved state: %v %v", st, trans)
	}
	st, trans = d.Observe("m", []Sample{exceedSample(0, 0.5)})
	if st != Drifting || len(trans) != 1 || trans[0].From != Healthy || trans[0].To != Drifting {
		t.Fatalf("exceedance at 50%% of window did not drift: %v %v", st, trans)
	}
	// Recovery: in-band samples push the exceedances out of the window.
	for i := 0; i < 4; i++ {
		st, _ = d.Observe("m", []Sample{inBandSample(0)})
	}
	if st != Healthy {
		t.Fatalf("window refilled in-band but state = %v", st)
	}
}

func TestDetectorCUSUMTrigger(t *testing.T) {
	d := NewDetector(Options{Window: 100, MinSamples: 50, MaxExceedFrac: 0.99,
		CUSUMSlack: 0.05, CUSUMThreshold: 0.5, StaleAfter: 1000})
	// Small systematic bias, always inside the band: only CUSUM can see it.
	var st State
	for i := 0; i < 3; i++ {
		st, _ = d.Observe("m", []Sample{{Phase: 0, SpeedupResidual: 0.15}})
	}
	if st != Healthy {
		t.Fatalf("CUSUM fired early: %v", st)
	}
	for i := 0; i < 4; i++ {
		st, _ = d.Observe("m", []Sample{{Phase: 0, SpeedupResidual: 0.15}})
	}
	if st != Drifting {
		t.Fatalf("systematic in-band bias not detected: %v", st)
	}
	// Negative bias triggers the other side.
	d2 := NewDetector(Options{CUSUMSlack: 0.05, CUSUMThreshold: 0.5, MinSamples: 1000})
	for i := 0; i < 7; i++ {
		st, _ = d2.Observe("m", []Sample{{Phase: 0, DegResidual: -0.15}})
	}
	if st != Drifting {
		t.Fatalf("negative bias not detected: %v", st)
	}
}

func TestDetectorStaleAndReset(t *testing.T) {
	d := NewDetector(Options{Window: 4, MinSamples: 1, MaxExceedFrac: 0.5,
		CUSUMThreshold: 1e9, StaleAfter: 3})
	var st State
	for i := 0; i < 2; i++ {
		st, _ = d.Observe("m", []Sample{exceedSample(0, 1)})
	}
	if st != Drifting {
		t.Fatalf("state %v, want drifting", st)
	}
	for i := 0; i < 3; i++ {
		st, _ = d.Observe("m", []Sample{exceedSample(0, 1)})
	}
	if st != Stale {
		t.Fatalf("state %v after persistent drift, want stale", st)
	}
	// Rearm (a retrain shipped nothing) restarts the drift age: the
	// persisting drift needs StaleAfter more samples to go stale again.
	d.Rearm("m")
	if got := d.State("m"); got != Drifting {
		t.Fatalf("Rearm left state %v, want drifting", got)
	}
	for i := 1; i <= 3; i++ {
		st, _ = d.Observe("m", []Sample{exceedSample(0, 1)})
		if i < 3 && st != Drifting {
			t.Fatalf("re-armed model %v after %d samples, want drifting", st, i)
		}
	}
	if st != Stale {
		t.Fatalf("state %v after re-armed drift persisted, want stale", st)
	}
	d.Rearm("x")
	if got := d.State("x"); got != Healthy {
		t.Fatalf("Rearm moved an unseen model to %v", got)
	}
	// Stale holds otherwise: even a clean window does not rehabilitate.
	for i := 0; i < 8; i++ {
		st, _ = d.Observe("m", []Sample{inBandSample(0)})
	}
	if st != Stale {
		t.Fatalf("stale model recovered by itself: %v", st)
	}
	d.Reset("m")
	if got := d.State("m"); got != Healthy {
		t.Fatalf("Reset left state %v", got)
	}
}

// TestDetectorDeterministic pins the core closed-loop property: an
// identical feedback sequence produces identical transitions, states and
// medians across independent detectors.
func TestDetectorDeterministic(t *testing.T) {
	seq := make([][]Sample, 0, 64)
	for i := 0; i < 64; i++ {
		res := 0.01 * float64(i%7)
		s := Sample{Phase: i % 3, SpeedupResidual: res, DegResidual: -res,
			SpeedupExceeded: i%5 == 0, DegExceeded: i%4 == 0}
		seq = append(seq, []Sample{s})
	}
	run := func() ([]State, []Transition, []float64, []float64) {
		d := NewDetector(Options{Window: 8, MinSamples: 4, MaxExceedFrac: 0.4,
			CUSUMSlack: 0.01, CUSUMThreshold: 0.3, StaleAfter: 30})
		var states []State
		var trans []Transition
		for _, batch := range seq {
			st, tr := d.Observe("m", batch)
			states = append(states, st)
			trans = append(trans, tr...)
		}
		spd, deg := d.Medians("m", 3)
		return states, trans, spd, deg
	}
	s1, t1, spd1, deg1 := run()
	s2, t2, spd2, deg2 := run()
	if !reflect.DeepEqual(s1, s2) || !reflect.DeepEqual(t1, t2) {
		t.Fatalf("state trajectories differ:\n%v\n%v\ntransitions:\n%v\n%v", s1, s2, t1, t2)
	}
	if !reflect.DeepEqual(spd1, spd2) || !reflect.DeepEqual(deg1, deg2) {
		t.Fatal("medians differ across identical sequences")
	}
	if len(t1) == 0 {
		t.Fatal("sequence caused no transitions; test is vacuous")
	}
}

func TestDetectorMedians(t *testing.T) {
	d := NewDetector(Options{Window: 8, CUSUMThreshold: 1e9, MinSamples: 1000})
	for _, r := range []float64{0.3, 0.1, 0.2} {
		d.Observe("m", []Sample{{Phase: 0, SpeedupResidual: r, DegResidual: -r}})
	}
	spd, deg := d.Medians("m", 2)
	if spd[0] != 0.2 || deg[0] != -0.2 {
		t.Fatalf("phase-0 medians = (%g, %g), want (0.2, -0.2)", spd[0], deg[0])
	}
	if spd[1] != 0 || deg[1] != 0 {
		t.Fatalf("unobserved phase medians = (%g, %g), want zeros", spd[1], deg[1])
	}
	// Unknown model: zero shifts for every phase.
	spd, deg = d.Medians("nope", 2)
	for ph := range spd {
		if spd[ph] != 0 || deg[ph] != 0 {
			t.Fatal("unknown model produced non-zero medians")
		}
	}
}

// TestDetectorConcurrentModels exercises the lock under parallel
// reporters for distinct models (the race detector is the assertion).
func TestDetectorConcurrentModels(t *testing.T) {
	d := NewDetector(Options{})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			model := string(rune('a' + w%4))
			for i := 0; i < 50; i++ {
				d.Observe(model, []Sample{exceedSample(i%2, 0.2)})
				d.State(model)
				d.Medians(model, 2)
			}
		}(w)
	}
	wg.Wait()
}
