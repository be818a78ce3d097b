package experiments

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeExps builds n synthetic experiments whose Run sleeps so that later
// experiments finish before earlier ones — the worst case for the
// engine's ordering guarantee.
func fakeExps(n int, ran *atomic.Int64) []Experiment {
	exps := make([]Experiment, n)
	for i := range exps {
		i := i
		exps[i] = Experiment{
			ID: fmt.Sprintf("fake%d", i),
			Run: func(*Suite) (*Table, error) {
				// Earlier experiments sleep longer: completion order is the
				// reverse of presentation order.
				time.Sleep(time.Duration(n-i) * 2 * time.Millisecond)
				if ran != nil {
					ran.Add(1)
				}
				tab := &Table{ID: fmt.Sprintf("fake%d", i), Columns: []string{"v"}}
				tab.AddRow(i)
				return tab, nil
			},
		}
	}
	return exps
}

// runAll collects RunAllFunc's results in presentation order.
func runAll(ctx context.Context, s *Suite, exps []Experiment, parallelism int) ([]RunResult, error) {
	var results []RunResult
	err := RunAllFunc(ctx, s, exps, parallelism, func(r RunResult) error {
		results = append(results, r)
		return nil
	})
	return results, err
}

func TestRunAllPreservesOrder(t *testing.T) {
	exps := fakeExps(8, nil)
	var emitted []string
	err := RunAllFunc(context.Background(), nil, exps, 4, func(r RunResult) error {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		emitted = append(emitted, r.Table.ID)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(emitted) != len(exps) {
		t.Fatalf("emitted %d results, want %d", len(emitted), len(exps))
	}
	for i, id := range emitted {
		if want := fmt.Sprintf("fake%d", i); id != want {
			t.Fatalf("emit order broken at %d: got %s, want %s (full order %v)", i, id, want, emitted)
		}
	}
}

func TestRunAllCollectsAllResults(t *testing.T) {
	exps := fakeExps(5, nil)
	results, err := runAll(context.Background(), nil, exps, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 5 {
		t.Fatalf("got %d results", len(results))
	}
	for i, r := range results {
		if r.Experiment.ID != exps[i].ID || r.Table == nil || r.Duration <= 0 {
			t.Fatalf("result %d malformed: %+v", i, r)
		}
	}
}

func TestRunAllReportsFirstErrorInOrder(t *testing.T) {
	exps := fakeExps(6, nil)
	// Two failures; the one earlier in presentation order (2) finishes
	// *later* in wall-clock than (4) because of the reversed sleeps — the
	// engine must still report experiment 2 first.
	bang2 := errors.New("bang2")
	bang4 := errors.New("bang4")
	run2, run4 := exps[2].Run, exps[4].Run
	exps[2].Run = func(s *Suite) (*Table, error) { run2(s); return nil, bang2 }
	exps[4].Run = func(s *Suite) (*Table, error) { run4(s); return nil, bang4 }

	results, err := runAll(context.Background(), nil, exps, 6)
	if !errors.Is(err, bang2) {
		t.Fatalf("err = %v, want the presentation-order-first failure %v", err, bang2)
	}
	if len(results) != 6 {
		t.Fatalf("results = %d, want all 6 (errors must not drop results)", len(results))
	}
	if results[2].Err == nil || results[4].Err == nil {
		t.Fatal("per-result errors lost")
	}
	if results[3].Err != nil || results[3].Table == nil {
		t.Fatal("an unrelated experiment was polluted by the failures")
	}
}

func TestRunAllEmitErrorCancelsRemaining(t *testing.T) {
	var ran atomic.Int64
	exps := fakeExps(20, &ran)
	stop := errors.New("stop after first")
	err := RunAllFunc(context.Background(), nil, exps, 2, func(r RunResult) error {
		return stop
	})
	if !errors.Is(err, stop) {
		t.Fatalf("err = %v, want emit error", err)
	}
	if got := ran.Load(); got == 20 {
		t.Fatal("emit error did not cancel the remaining experiments")
	}
}

func TestRunAllContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	release := make(chan struct{})
	exps := []Experiment{
		{ID: "first", Run: func(*Suite) (*Table, error) {
			cancel() // cancel while the run is in flight
			<-release
			tab := &Table{ID: "first", Columns: []string{"v"}}
			tab.AddRow(1)
			return tab, nil
		}},
		{ID: "second", Run: func(*Suite) (*Table, error) {
			t.Error("second experiment must not start after cancellation")
			return nil, nil
		}},
	}
	go func() {
		time.Sleep(10 * time.Millisecond)
		close(release)
	}()
	results, err := runAll(ctx, nil, exps, 1)
	if err == nil {
		t.Fatal("want a context error")
	}
	if len(results) != 2 {
		t.Fatalf("results = %d", len(results))
	}
	// The in-flight experiment completes; the unstarted one carries the
	// context's error.
	if results[0].Err != nil || results[0].Table == nil {
		t.Fatalf("in-flight experiment should finish: %+v", results[0])
	}
	if !errors.Is(results[1].Err, context.Canceled) {
		t.Fatalf("unstarted experiment err = %v, want context.Canceled", results[1].Err)
	}
}

func TestRunAllEmpty(t *testing.T) {
	results, err := runAll(context.Background(), nil, nil, 4)
	if err != nil || len(results) != 0 {
		t.Fatalf("empty run: %v, %d results", err, len(results))
	}
}

// TestRunAllDeterministicAcrossParallelism regenerates the cheap
// characterization artifacts on two fresh suites — serial and wide — and
// requires byte-identical renders. This is the engine's core contract:
// parallelism must never leak into artifact bytes.
func TestRunAllDeterministicAcrossParallelism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real experiments")
	}
	ids := []string{"fig2", "fig3", "fig7", "table1", "ablation-phasesearch"}
	render := func(parallelism int) []string {
		s := NewSuite(1, true)
		var exps []Experiment
		for _, id := range ids {
			e, ok := ByID(id)
			if !ok {
				t.Fatalf("experiment %s missing", id)
			}
			exps = append(exps, e)
		}
		results, err := runAll(context.Background(), s, exps, parallelism)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]string, len(results))
		for i, r := range results {
			out[i] = r.Table.Render()
		}
		return out
	}
	serial := render(1)
	wide := render(4)
	for i := range serial {
		if serial[i] != wide[i] {
			t.Fatalf("%s differs between parallelism 1 and 4:\n--- serial ---\n%s\n--- parallel ---\n%s",
				ids[i], serial[i], wide[i])
		}
	}
}

// TestSuiteTrainedSingleflight hammers Suite.Trained for the same key
// from many goroutines: every caller must get the same *Trained (trained
// exactly once), with no data race. The suite's race regression test.
func TestSuiteTrainedSingleflight(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	s := NewSuite(1, true)
	const goroutines = 12
	trs := make([]interface{}, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tr, err := s.Trained("pso", 4)
			if err != nil {
				t.Error(err)
				return
			}
			trs[g] = tr
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		if trs[g] != trs[0] {
			t.Fatalf("goroutine %d trained a second model — singleflight failed", g)
		}
	}
}

// TestOptimizePropertySuiteApps is the optimizer's property test over
// real suite applications: for a rising budget ladder, the predicted
// degradation never exceeds the budget, and the predicted speedup never
// decreases.
func TestOptimizePropertySuiteApps(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models")
	}
	s := NewSuite(1, true)
	for _, app := range []string{"pso", "vidpipe"} {
		tr, err := s.Trained(app, 4)
		if err != nil {
			t.Fatal(err)
		}
		runner := s.runner(app)
		p := make(map[string]float64)
		for _, spec := range runner.App.Params() {
			p[spec.Name] = spec.Default
		}
		prevSpeedup := 0.0
		for budget := 0.0; budget <= 24; budget += 2 {
			_, pred, err := tr.Optimize(p, budget)
			if err != nil {
				t.Fatalf("%s budget %g: %v", app, budget, err)
			}
			if pred.Degradation > budget+1e-9 {
				t.Fatalf("%s: predicted degradation %.4f exceeds budget %g", app, pred.Degradation, budget)
			}
			if pred.Speedup+1e-9 < prevSpeedup {
				t.Fatalf("%s: predicted speedup fell from %.6f to %.6f when budget rose to %g",
					app, prevSpeedup, pred.Speedup, budget)
			}
			prevSpeedup = pred.Speedup
		}
	}
}
