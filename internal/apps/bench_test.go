package apps_test

import (
	"testing"

	"opprox/internal/approx"
	"opprox/internal/apps"
)

// One accurate-run benchmark per application: the cost of a golden run is
// the unit every training budget is denominated in.
func BenchmarkGoldenRuns(b *testing.B) {
	for _, a := range allApps() {
		a := a
		b.Run(a.Name(), func(b *testing.B) {
			p := apps.DefaultParams(a)
			sched := approx.AccurateSchedule(len(a.Blocks()))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := apps.Run(a, p, sched, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// The max-approximation runs bound the cheap end of the spectrum.
func BenchmarkMaxApproxRuns(b *testing.B) {
	for _, a := range allApps() {
		a := a
		b.Run(a.Name(), func(b *testing.B) {
			p := apps.DefaultParams(a)
			cfg := make(approx.Config, len(a.Blocks()))
			for i, blk := range a.Blocks() {
				cfg[i] = blk.MaxLevel
			}
			g, err := apps.Run(a, p, approx.AccurateSchedule(len(a.Blocks())), 0)
			if err != nil {
				b.Fatal(err)
			}
			sched := approx.UniformSchedule(1, cfg)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := apps.Run(a, p, sched, g.OuterIters); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
