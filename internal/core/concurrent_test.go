package core

import (
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"opprox/internal/apps"
	"opprox/internal/apps/pso"
	"opprox/internal/apps/vidpipe"
)

// TestOptimizeConcurrentMatchesSerial runs Optimize and DiagnosePhase on
// one *Trained from many goroutines at once, each with its own (params,
// budget) pair — the serving layer's cold path, where every plan-cache
// miss plans on its request's own goroutine — and requires every
// schedule, prediction and diagnosis to be bitwise equal to a serial
// pass over the same pairs. Run it under -race: the pooled scratch the
// optimizer shares across calls must never leak between them.
func TestOptimizeConcurrentMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("trains real applications; skipped with -short")
	}
	for _, app := range []apps.App{pso.New(), vidpipe.New()} {
		t.Run(app.Name(), func(t *testing.T) {
			tr := loadOracleModel(t, app)
			type pair struct {
				p      apps.Params
				budget float64
			}
			rng := rand.New(rand.NewSource(17))
			pairs := make([]pair, 48)
			for i := range pairs {
				pairs[i] = pair{heldOutParams(rng, app), math.Round(rng.Float64()*3000) / 100}
			}
			plan := func(pr pair) []uint64 {
				sched, pred, err := tr.Optimize(pr.p, pr.budget)
				if err != nil {
					t.Error(err)
					return nil
				}
				out := predictionBits(pred)
				for ph, cfg := range sched.Levels {
					out = append(out, uint64(len(cfg)))
					for _, l := range cfg {
						out = append(out, uint64(l))
					}
					d, err := tr.DiagnosePhase(pr.p, ph, cfg)
					if err != nil {
						t.Error(err)
						return nil
					}
					out = append(out, diagBits(d)...)
				}
				return out
			}
			serial := make([][]uint64, len(pairs))
			for i, pr := range pairs {
				serial[i] = plan(pr)
			}
			concurrent := make([][]uint64, len(pairs))
			start := make(chan struct{})
			var wg sync.WaitGroup
			for i, pr := range pairs {
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					concurrent[i] = plan(pr)
				}()
			}
			close(start)
			wg.Wait()
			for i, pr := range pairs {
				if !reflect.DeepEqual(concurrent[i], serial[i]) {
					t.Fatalf("params %v budget %g: concurrent result differs from the serial pass", pr.p, pr.budget)
				}
			}
		})
	}
}
