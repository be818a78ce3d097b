// Package opprox is a from-scratch reproduction of OPPROX, the
// phase-aware optimizer for approximate programs from Mitra, Gupta,
// Misailovic and Bagchi, "Phase-Aware Optimization in Approximate
// Computing" (CGO 2017).
//
// Many iterative applications — timestep simulations, convergence solvers,
// streaming pipelines — pass through execution phases with very different
// sensitivity to approximation: an error injected while a shock is strong,
// a swarm is exploring, or a video encoder is establishing its reference
// frames costs far more final accuracy than the same error injected near
// the end. OPPROX exploits this: it learns per-phase models of speedup and
// quality-of-service degradation, splits a user's error budget across
// phases by return on investment, and emits a schedule that tells the
// application how aggressively to approximate each block in each phase.
//
// # Quick start
//
//	app := opprox.LULESH()
//	sys := opprox.New(app)
//	if err := sys.Train(opprox.DefaultOptions()); err != nil { ... }
//	sched, pred, err := sys.Optimize(opprox.DefaultParams(app), 10) // 10% budget
//	ev, err := sys.Evaluate(opprox.DefaultParams(app), sched)       // measure it
//
// The package re-exports the library's stable surface; the implementation
// lives in internal/ packages (approx, trace, qos, ml/*, apps/*, core).
package opprox

import (
	"opprox/internal/approx"
	"opprox/internal/apps"
	"opprox/internal/apps/comd"
	"opprox/internal/apps/lulesh"
	"opprox/internal/apps/pso"
	"opprox/internal/apps/tracker"
	"opprox/internal/apps/vidpipe"
	"opprox/internal/core"
	"opprox/internal/trace"
)

// Re-exported types: the application contract.
type (
	// App is the contract an application must satisfy to be optimized:
	// named approximable blocks, declared input parameters, a Start that
	// returns the run paused before its outer loop, and a QoS metric.
	App = apps.App
	// State is one run paused between outer-loop iterations: Step runs
	// the next iteration under a schedule, Clone copies the run, Result
	// assembles its outcome.
	State = apps.State
	// Params maps input-parameter names to values for one run.
	Params = apps.Params
	// ParamSpec declares one input parameter and its representative
	// training values.
	ParamSpec = apps.ParamSpec
	// Result is the observable outcome of one run.
	Result = apps.Result
	// Eval is a run scored against the golden (accurate) execution.
	Eval = apps.Eval
	// Runner caches golden runs and scores approximate runs against them.
	Runner = apps.Runner
)

// Re-exported types: approximation plumbing.
type (
	// Block describes one approximable block: name, technique, max level.
	Block = approx.Block
	// Config assigns an approximation level to every block.
	Config = approx.Config
	// Schedule is the phase-aware plan OPPROX produces: one Config per
	// execution phase.
	Schedule = approx.Schedule
	// Technique names one of the four approximation transformations.
	Technique = approx.Technique
)

// Re-exported types: the optimizer.
type (
	// Options configures training and optimization.
	Options = core.Options
	// Trained holds the per-phase models produced by Train.
	Trained = core.Trained
	// Prediction is the optimizer's expectation for a chosen schedule.
	Prediction = core.Prediction
	// OracleResult is the phase-agnostic exhaustive baseline's outcome.
	OracleResult = core.OracleResult
	// BudgetPolicy selects how the error budget is split across phases.
	BudgetPolicy = core.BudgetPolicy
)

// Approximation techniques (paper §3.2).
const (
	Perforation = approx.Perforation
	Truncation  = approx.Truncation
	Memoization = approx.Memoization
	ParamTuning = approx.ParamTuning
)

// Budget policies (paper §3.8 and the uniform ablation).
const (
	BudgetPolicyROI     = core.BudgetPolicyROI
	BudgetPolicyUniform = core.BudgetPolicyUniform
)

// DefaultOptions returns the configuration used throughout the paper's
// evaluation.
func DefaultOptions() Options { return core.DefaultOptions() }

// DefaultParams builds an application's default input parameters.
func DefaultParams(a App) Params { return apps.DefaultParams(a) }

// NewRunner wraps an application with golden-run caching and scoring.
func NewRunner(a App) *Runner { return apps.NewRunner(a) }

// Train runs OPPROX's offline pipeline: phase-granularity search, training
// sampling, control-flow classification, and per-phase model fitting.
func Train(r *Runner, opts Options) (*Trained, error) { return core.Train(r, opts) }

// LoadTrained reads a model set previously written with Trained.Save —
// the runtime half of the paper's train-once, optimize-per-job flow.
var LoadTrained = core.LoadTrained

// BlockProfile is one block's sensitivity sweep (paper §3.1).
type BlockProfile = core.BlockProfile

// SensitivityProfile sweeps every block's levels one at a time and reports
// which levels keep the output usable — the paper's §3.1 procedure for
// vetting approximable blocks.
var SensitivityProfile = core.SensitivityProfile

// PhaseAgnosticOracle exhaustively measures every whole-run configuration
// and returns the best one within the budget — the idealized baseline from
// prior work that the paper compares against.
func PhaseAgnosticOracle(r *Runner, p Params, budget float64) (OracleResult, error) {
	return core.PhaseAgnosticOracle(r, p, budget)
}

// Recorder is the work-accounting and call-context tracer a custom App's
// State reports into.
type Recorder = trace.Recorder

// Approximation executors for building custom applications: each is the
// identity at level 0 and sheds work monotonically as the level rises.
var (
	// PhaseOf maps an outer-loop iteration to its phase.
	PhaseOf = approx.PhaseOf
	// Perforate runs a loop with stride level+1.
	Perforate = approx.Perforate
	// PerforateRotating staggers the perforation offset across passes.
	PerforateRotating = approx.PerforateRotating
	// PerforateFraction skips an evenly spread fraction level/(max+1).
	PerforateFraction = approx.PerforateFraction
	// Truncate drops trailing iterations, up to half at the max level.
	Truncate = approx.Truncate
	// Memoize recomputes every level+1 iterations and reuses in between.
	Memoize = approx.Memoize
	// TunedValue interpolates an accuracy-controlling parameter.
	TunedValue = approx.TunedValue
	// ReducePrecision rounds a float64 to a level-controlled mantissa width.
	ReducePrecision = approx.ReducePrecision
)

// Schedule constructors.
var (
	// UniformSchedule applies one configuration to every phase.
	UniformSchedule = approx.UniformSchedule
	// AccurateSchedule is the all-zeros (exact) schedule.
	AccurateSchedule = approx.AccurateSchedule
	// SinglePhaseSchedule approximates only one phase.
	SinglePhaseSchedule = approx.SinglePhaseSchedule
)

// Benchmark applications from the paper's evaluation (§4.1), built as real
// numerical kernels on synthetic inputs.
func LULESH() App    { return lulesh.New() }
func CoMD() App      { return comd.New() }
func FFmpeg() App    { return vidpipe.New() } // the vidpipe video pipeline
func Bodytrack() App { return tracker.New() } // the tracker particle filter
func PSO() App       { return pso.New() }

// Benchmarks returns all five evaluation applications.
func Benchmarks() []App {
	return []App{LULESH(), CoMD(), FFmpeg(), Bodytrack(), PSO()}
}

// System bundles a runner and its trained models — the most convenient way
// to use the library.
type System struct {
	Runner *Runner
	Models *Trained
}

// New creates a System for an application.
func New(a App) *System {
	return &System{Runner: apps.NewRunner(a)}
}

// Train runs the offline pipeline and stores the models on the System.
func (s *System) Train(opts Options) error {
	tr, err := core.Train(s.Runner, opts)
	if err != nil {
		return err
	}
	s.Models = tr
	return nil
}

// Optimize picks the most profitable per-phase approximation settings for
// the given input parameters and QoS-degradation budget (percent).
func (s *System) Optimize(p Params, budget float64) (Schedule, Prediction, error) {
	if s.Models == nil {
		return Schedule{}, Prediction{}, errNotTrained
	}
	return s.Models.Optimize(p, budget)
}

// Evaluate measures a schedule for real against the golden run.
func (s *System) Evaluate(p Params, sched Schedule) (*Eval, error) {
	return s.Runner.Evaluate(p, sched)
}

type notTrainedError struct{}

func (notTrainedError) Error() string { return "opprox: System.Train must run before Optimize" }

var errNotTrained = notTrainedError{}
