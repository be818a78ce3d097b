package apps_test

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"opprox/internal/approx"
	"opprox/internal/apps"
	"opprox/internal/apps/comd"
	"opprox/internal/apps/tracker"
	"opprox/internal/apps/vidpipe"
)

// TestKernelsEvaluateConcurrent runs one Runner's Evaluate from many
// goroutines on the real apps whose kernels keep state outside a run —
// comd's pooled pair table, vidpipe's raw frame table that clones
// share, tracker's particle double buffer — with one input and a
// different schedule per call, and compares every result bit for bit
// with a serial pass on a fresh Runner. A scratch shared between runs
// changes results; a write into data clones share is a race under
// -race.
func TestKernelsEvaluateConcurrent(t *testing.T) {
	cases := []struct {
		app apps.App
		p   apps.Params
	}{
		{comd.New(), apps.Params{"cells": 2, "lattice": 1.6, "timesteps": 40}},
		{vidpipe.New(), apps.Params{"fps": 12, "duration": 2, "bitrate": 4, "filterorder": 1}},
		{tracker.New(), apps.Params{"layers": 3, "particles": 60, "frames": 8}},
	}
	for _, c := range cases {
		t.Run(c.app.Name(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(5))
			var scheds []approx.Schedule
			for i := 0; i < 32; i++ {
				scheds = append(scheds, randomSchedule(rng, c.app.Blocks(), 4))
			}
			serial := apps.NewRunner(c.app)
			want := make([]*apps.Eval, len(scheds))
			for i, sched := range scheds {
				ev, err := serial.Evaluate(c.p, sched)
				if err != nil {
					t.Fatal(err)
				}
				want[i] = ev
			}

			const goroutines = 8
			r := apps.NewRunner(c.app)
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := g; i < len(scheds); i += goroutines {
						ev, err := r.Evaluate(c.p, scheds[i])
						if err != nil {
							t.Error(err)
							return
						}
						w := want[i]
						same := len(ev.Output) == len(w.Output) && ev.Work == w.Work &&
							ev.OuterIters == w.OuterIters && ev.CtxSig == w.CtxSig
						for k := 0; same && k < len(w.Output); k++ {
							same = math.Float64bits(ev.Output[k]) == math.Float64bits(w.Output[k])
						}
						if !same {
							t.Errorf("schedule %s: concurrent run differs from the serial one", scheds[i])
						}
					}
				}(g)
			}
			wg.Wait()
		})
	}
}
