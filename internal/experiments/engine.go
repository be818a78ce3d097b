package experiments

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"opprox/internal/obs"
)

// RunResult is the outcome of one experiment executed by the engine.
type RunResult struct {
	Experiment Experiment
	// Table is the rendered artifact; nil when Err is set.
	Table *Table
	// Err is the experiment's failure, or the context error when the run
	// was canceled before this experiment finished.
	Err error
	// Duration is the experiment's wall-clock execution time (zero when
	// the experiment never started).
	Duration time.Duration
}

// RunAllFunc executes the experiments on a worker pool of the given
// parallelism and delivers their results in the order the experiments
// were given — the presentation order — no matter how execution
// interleaved: emit is called exactly once per experiment, as soon as
// the result is available (an experiment's result can only be emitted
// once every earlier experiment has been emitted). emit runs on the
// calling goroutine's side, never concurrently; returning a non-nil
// error stops the run and cancels the remaining experiments.
//
// Every experiment seeds its own RNG from the suite seed and the shared
// caches (trained models, golden runs) are deduplicating and
// deterministic, so the tables RunAllFunc produces are byte-identical to
// running the same experiments serially. The returned error is emit's,
// or else the first failure in presentation order (every outcome is
// still emitted).
//
// Parallelism <= 0 means runtime.NumCPU().
func RunAllFunc(ctx context.Context, s *Suite, exps []Experiment, parallelism int, emit func(RunResult) error) error {
	if parallelism <= 0 {
		parallelism = runtime.NumCPU()
	}
	if parallelism > len(exps) {
		parallelism = len(exps)
	}
	if len(exps) == 0 {
		return nil
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	obs.LogEvent("experiments.runall", "start: %d experiments, parallelism %d", len(exps), parallelism)
	runStart := time.Now()

	type slot struct {
		res  RunResult
		done chan struct{}
	}
	slots := make([]*slot, len(exps))
	for i := range slots {
		slots[i] = &slot{done: make(chan struct{})}
	}

	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				sl := slots[i]
				e := exps[i]
				sl.res.Experiment = e
				if err := ctx.Err(); err != nil {
					sl.res.Err = err
					close(sl.done)
					continue
				}
				obs.LogEvent("experiment.start", "%s", e.ID)
				t0 := time.Now()
				tab, err := e.Run(s)
				sl.res.Duration = time.Since(t0)
				sl.res.Table, sl.res.Err = tab, err
				obs.Inc("experiments.run")
				obs.Observe("experiments.duration", sl.res.Duration)
				if err != nil {
					obs.Inc("experiments.failed")
					obs.LogEvent("experiment.error", "%s: %v", e.ID, err)
				} else {
					obs.LogEvent("experiment.done", "%s in %s", e.ID, sl.res.Duration.Round(time.Millisecond))
				}
				close(sl.done)
			}
		}()
	}

	// Feed the pool without blocking the emitter: the feeder stops early
	// when the run is canceled (workers mark unfed slots via the ctx check
	// above; slots the feeder never reaches are marked here).
	go func() {
		defer close(next)
		for i := range exps {
			select {
			case next <- i:
			case <-ctx.Done():
				for j := i; j < len(exps); j++ {
					sl := slots[j]
					select {
					case <-sl.done:
					default:
						sl.res.Experiment = exps[j]
						sl.res.Err = ctx.Err()
						close(sl.done)
					}
				}
				return
			}
		}
	}()

	var firstErr error
	for i, sl := range slots {
		<-sl.done
		if sl.res.Err != nil && firstErr == nil {
			firstErr = fmt.Errorf("%s: %w", exps[i].ID, sl.res.Err)
		}
		if err := emit(sl.res); err != nil {
			cancel()
			// Drain the pool before returning so no worker touches slots
			// after the caller moved on.
			for _, rest := range slots[i+1:] {
				<-rest.done
			}
			wg.Wait()
			return err
		}
	}
	wg.Wait()
	obs.LogEvent("experiments.runall", "done: %d experiments in %s", len(exps), time.Since(runStart).Round(time.Millisecond))
	return firstErr
}
