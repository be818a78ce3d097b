// Benchmarks: one per table and figure of the paper's evaluation, plus the
// design-choice ablations from DESIGN.md §5. Each benchmark regenerates
// its artifact through internal/experiments on a reduced ("quick") suite so
// `go test -bench=.` stays tractable; cmd/opprox-experiments produces the
// full-fidelity versions recorded in EXPERIMENTS.md.
//
// The suite (runners, golden caches, trained models) is shared across
// benchmark functions, so the reported per-op times measure the artifact's
// incremental cost once training is cached — the same way a user iterating
// on budgets experiences the system.
package opprox_test

import (
	"context"
	"runtime"
	"sync"
	"testing"

	"opprox/internal/experiments"
)

var (
	benchSuiteOnce sync.Once
	benchSuite     *experiments.Suite
)

func suite() *experiments.Suite {
	benchSuiteOnce.Do(func() {
		benchSuite = experiments.NewSuite(1, true)
	})
	return benchSuite
}

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	s := suite()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab, err := e.Run(s)
		if err != nil {
			b.Fatal(err)
		}
		if len(tab.Rows) == 0 {
			b.Fatalf("%s produced no rows", id)
		}
	}
}

// BenchmarkFig02 regenerates paper Fig. 2 (LULESH per-block sweeps).
func BenchmarkFig02(b *testing.B) { benchExperiment(b, "fig2") }

// BenchmarkFig03 regenerates paper Fig. 3 (LULESH iteration-count drift).
func BenchmarkFig03(b *testing.B) { benchExperiment(b, "fig3") }

// BenchmarkFig04 regenerates paper Fig. 4 (LULESH phase-specific QoS).
func BenchmarkFig04(b *testing.B) { benchExperiment(b, "fig4") }

// BenchmarkFig05 regenerates paper Fig. 5 (LULESH phase-specific speedup).
func BenchmarkFig05(b *testing.B) { benchExperiment(b, "fig5") }

// BenchmarkFig07 regenerates paper Fig. 7 (FFmpeg filter-order effect).
func BenchmarkFig07(b *testing.B) { benchExperiment(b, "fig7") }

// BenchmarkFig09 regenerates paper Fig. 9 (phase QoS, four apps).
func BenchmarkFig09(b *testing.B) { benchExperiment(b, "fig9") }

// BenchmarkFig10 regenerates paper Fig. 10 (phase speedup, four apps).
func BenchmarkFig10(b *testing.B) { benchExperiment(b, "fig10") }

// BenchmarkFig11 regenerates paper Fig. 11 (2/4/8-phase granularity).
func BenchmarkFig11(b *testing.B) { benchExperiment(b, "fig11") }

// BenchmarkFig12 regenerates paper Fig. 12 (QoS model accuracy).
func BenchmarkFig12(b *testing.B) { benchExperiment(b, "fig12") }

// BenchmarkFig13 regenerates paper Fig. 13 (speedup model accuracy).
func BenchmarkFig13(b *testing.B) { benchExperiment(b, "fig13") }

// BenchmarkFig14 regenerates paper Fig. 14 (OPPROX vs the oracle).
func BenchmarkFig14(b *testing.B) { benchExperiment(b, "fig14") }

// BenchmarkFig15 regenerates paper Fig. 15 (phase behavior across inputs).
func BenchmarkFig15(b *testing.B) { benchExperiment(b, "fig15") }

// BenchmarkTable1 regenerates paper Table 1 (apps and search spaces).
func BenchmarkTable1(b *testing.B) { benchExperiment(b, "table1") }

// BenchmarkTable2 regenerates paper Table 2 (training/optimization time).
func BenchmarkTable2(b *testing.B) { benchExperiment(b, "table2") }

// BenchmarkAblationBudgetPolicy compares ROI vs uniform budget splits.
func BenchmarkAblationBudgetPolicy(b *testing.B) { benchExperiment(b, "ablation-budget") }

// BenchmarkAblationConfidence toggles conservative confidence intervals.
func BenchmarkAblationConfidence(b *testing.B) { benchExperiment(b, "ablation-confidence") }

// BenchmarkAblationMIC toggles MIC feature filtering.
func BenchmarkAblationMIC(b *testing.B) { benchExperiment(b, "ablation-mic") }

// BenchmarkAblationIterFeature toggles the iteration-count feature.
func BenchmarkAblationIterFeature(b *testing.B) { benchExperiment(b, "ablation-iter") }

// BenchmarkAblationPhaseSearch runs Algorithm 1 per app.
func BenchmarkAblationPhaseSearch(b *testing.B) { benchExperiment(b, "ablation-phasesearch") }

// engineBenchIDs is the workload for the RunAll benchmarks: a
// representative slice of the evaluation (single-app sweeps, a four-app
// figure, a table, an ablation) rather than experiments.All(), whose
// table2 alone retrains every app at four phase granularities and pushes
// a single iteration past half an hour on one CPU. The subset exercises
// the same engine paths — ordered emission, cross-experiment training
// dedup, golden-cache sharing — at a tractable per-op cost.
var engineBenchIDs = []string{
	"fig2", "fig3", "fig7", "fig9", "table1", "ablation-phasesearch",
}

// benchRunAll regenerates the engineBenchIDs artifacts through the
// experiment engine at a given parallelism, on the shared quick suite
// (training and golden caches warm after the first iteration, so the
// steady-state number is the cost of regenerating the artifacts — the
// workload a user iterating on the evaluation actually pays).
func benchRunAll(b *testing.B, parallelism int) {
	b.Helper()
	s := suite()
	exps := make([]experiments.Experiment, 0, len(engineBenchIDs))
	for _, id := range engineBenchIDs {
		e, ok := experiments.ByID(id)
		if !ok {
			b.Fatalf("unknown experiment %q", id)
		}
		exps = append(exps, e)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		err := experiments.RunAllFunc(context.Background(), s, exps, parallelism, func(experiments.RunResult) error {
			n++
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
		if n != len(exps) {
			b.Fatalf("got %d results, want %d", n, len(exps))
		}
	}
}

// BenchmarkRunAllSerial is the baseline: the whole suite, one experiment
// at a time (what cmd/opprox-experiments does without -parallel).
func BenchmarkRunAllSerial(b *testing.B) { benchRunAll(b, 1) }

// BenchmarkRunAllParallel runs the same workload with one worker per CPU
// (cmd/opprox-experiments -parallel 0).
func BenchmarkRunAllParallel(b *testing.B) { benchRunAll(b, runtime.NumCPU()) }
