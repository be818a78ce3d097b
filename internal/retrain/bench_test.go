package retrain

import (
	"path/filepath"
	"testing"

	"opprox/internal/feedback"
)

// BenchmarkExtract replays a 512-report (1024-row) telemetry log into a
// training matrix — the streaming half of a retrain run.
func BenchmarkExtract(b *testing.B) {
	tr := loadModel(b)
	path := filepath.Join(b.TempDir(), "telemetry.jsonl")
	l, err := feedback.OpenLogOptions(path, feedback.LogOptions{})
	if err != nil {
		b.Fatal(err)
	}
	writeTelemetry(b, l, tr, "m.json", 512, 256, 0.4)
	if err := l.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := Extract(path, ExtractOptions{Model: "m.json"})
		if err != nil {
			b.Fatal(err)
		}
		if len(m.Rows) != 1024 {
			b.Fatalf("extracted %d rows", len(m.Rows))
		}
	}
}

// BenchmarkRedetect scans a 1024-row matrix for a changepoint and
// re-derives the phase grouping — the analysis half of a retrain run.
func BenchmarkRedetect(b *testing.B) {
	tr := loadModel(b)
	path := filepath.Join(b.TempDir(), "telemetry.jsonl")
	l, err := feedback.OpenLogOptions(path, feedback.LogOptions{})
	if err != nil {
		b.Fatal(err)
	}
	writeTelemetry(b, l, tr, "m.json", 512, 256, 0.4)
	if err := l.Close(); err != nil {
		b.Fatal(err)
	}
	m, err := Extract(path, ExtractOptions{Model: "m.json"})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seg, err := Redetect(tr, m.Rows, 0.15, 32)
		if err != nil {
			b.Fatal(err)
		}
		if !seg.Diverged {
			b.Fatal("shifted telemetry not flagged")
		}
	}
}
