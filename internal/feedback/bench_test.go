package feedback

import (
	"fmt"
	"path/filepath"
	"testing"
)

// BenchmarkDetectorObserve is the drift-check hot path: one feedback
// report (four phases) folded into a warm detector.
func BenchmarkDetectorObserve(b *testing.B) {
	d := NewDetector(Options{Window: 32, CUSUMThreshold: 1e9, MinSamples: 1 << 30})
	samples := make([]Sample, 4)
	for ph := range samples {
		samples[ph] = Sample{Phase: ph, SpeedupResidual: 0.01, DegResidual: -0.01}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Observe("m", samples)
	}
}

// BenchmarkFeedbackIngest is the ingest hot path without the HTTP layer:
// record lookup, validation, and the unsynced telemetry append.
func BenchmarkFeedbackIngest(b *testing.B) {
	recs := NewRecords(1024)
	for i := 0; i < 512; i++ {
		recs.Put(&DispatchRecord{ID: fmt.Sprintf("d%03d", i), Model: "m", Phases: 4})
	}
	l, err := OpenLogOptions(filepath.Join(b.TempDir(), "telemetry.jsonl"), LogOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	report := Report{
		DispatchID: "d100",
		Observations: []PhaseObservation{
			{Phase: 0, Speedup: 1.2, Degradation: 3},
			{Phase: 1, Speedup: 1.1, Degradation: 2},
		},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec, ok := recs.Get(report.DispatchID)
		if !ok {
			b.Fatal("record lost")
		}
		if err := report.Validate(rec.Phases); err != nil {
			b.Fatal(err)
		}
		for _, obs := range report.Observations {
			if err := l.Append(Entry{DispatchID: rec.ID, Model: rec.Model,
				Phase: obs.Phase, Speedup: obs.Speedup, Degradation: obs.Degradation}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkLogAppendSync measures the fsync'd telemetry append — the
// durability cost a deployment pays per acknowledged report.
func BenchmarkLogAppendSync(b *testing.B) {
	l, err := OpenLogOptions(filepath.Join(b.TempDir(), "telemetry.jsonl"), LogOptions{Sync: true})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	e := Entry{DispatchID: "d", Model: "m", Phase: 1, Speedup: 1.5, SpeedupRes: 0.1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := l.Append(e); err != nil {
			b.Fatal(err)
		}
	}
}
