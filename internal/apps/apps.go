// Package apps defines the contract between OPPROX and an application
// under optimization, plus the run harness (golden-run caching, QoS and
// speedup evaluation) shared by the five benchmark applications from the
// paper's evaluation (§4.1): LULESH, CoMD, FFmpeg (vidpipe), Bodytrack
// (tracker), and PSO.
//
// An application exposes its run as a State it can pause between
// outer-loop iterations: App.Start builds the state before the loop,
// State.Step runs one iteration under a schedule, State.Clone copies a
// paused run and State.Result assembles the output. Run is Start plus
// stepping to the end.
//
// A Runner uses the split to avoid re-running accurate prefixes. OPPROX
// samples one phase at a time (paper §3.3, §3.5), so a run approximating
// phase f repeats the golden run exactly for every iteration before
// approx.PhaseStart(f). Next to each golden run the Runner keeps accurate
// checkpoints at the phase boundaries evaluations ask for, and Evaluate
// clones the one at the schedule's first approximated phase and steps
// only from there. The resumed run's Result is bit-for-bit a full run's:
// the checkpoint carries the trace.Recorder, so work and iteration
// counts include the prefix, and apps that draw random numbers inside
// the loop keep a Source, which copies by value, so the stream resumes
// where the prefix left it.
package apps

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"sync"

	"opprox/internal/approx"
	"opprox/internal/obs"
	"opprox/internal/trace"
)

// ParamSpec describes one application input parameter and the
// representative values the training inputs draw from (paper §3.1: the
// user provides representative inputs that exercise the desired
// functionality).
type ParamSpec struct {
	Name string
	// Values are the representative settings used for training.
	Values []float64
	// Default is the target production setting experiments report on.
	Default float64
}

// Params maps parameter names to concrete values for one run.
type Params map[string]float64

// Clone returns a copy of p.
func (p Params) Clone() Params {
	out := make(Params, len(p))
	for k, v := range p {
		out[k] = v
	}
	return out
}

// Key returns a canonical string form of p, usable as a cache key.
func (p Params) Key() string {
	names := make([]string, 0, len(p))
	for k := range p {
		names = append(names, k)
	}
	sort.Strings(names)
	s := ""
	for _, k := range names {
		s += fmt.Sprintf("%s=%g;", k, p[k])
	}
	return s
}

// Vector flattens p into a feature vector following the order of specs.
func (p Params) Vector(specs []ParamSpec) []float64 {
	out := make([]float64, len(specs))
	for i, s := range specs {
		if v, ok := p[s.Name]; ok {
			out[i] = v
		} else {
			out[i] = s.Default
		}
	}
	return out
}

// DefaultParams builds the default parameter set for an app.
func DefaultParams(a App) Params {
	p := make(Params)
	for _, s := range a.Params() {
		p[s.Name] = s.Default
	}
	return p
}

// Result is the observable outcome of one application run.
type Result struct {
	// Output is the application's final answer, in a fixed layout the
	// app's QoS metric understands.
	Output []float64
	// Work is the abstract instruction count of the run.
	Work uint64
	// OuterIters is the number of outer-loop iterations executed.
	OuterIters int
	// CtxSig is the control-flow signature (ordered AB sequence of the
	// first outer iteration).
	CtxSig string
}

// App is the contract OPPROX requires from an application: named
// approximable blocks with discrete levels, declared input parameters, a
// run split into a start and per-iteration steps, and a QoS metric.
type App interface {
	// Name identifies the application in reports.
	Name() string
	// Blocks lists the approximable blocks in a fixed order.
	Blocks() []approx.Block
	// Params lists the input parameters and their representative values.
	Params() []ParamSpec
	// Start validates p and returns the run paused before its first
	// outer-loop iteration: inputs built, random streams seeded, nothing
	// recorded yet.
	Start(p Params) (State, error)
	// QoS returns the degradation (percent-like, 0 = identical, larger =
	// worse) of an approximate output versus the exact output.
	QoS(exact, approximate []float64) (float64, error)
}

// State is one run of an App paused between two outer-loop iterations.
// A run's behavior must depend on the schedule only through the levels
// of the phase each iteration falls in, so the accurate prefix of any
// run is the golden run's prefix and a Runner can resume from it.
type State interface {
	// Step runs the next outer-loop iteration under sched and reports
	// whether there was one; false means the loop had already ended and
	// nothing changed. An iteration opens with one trace BeginIteration
	// and runs at the levels of phase PhaseOf(i, baselineIters,
	// sched.Phases), i being the iterations stepped so far.
	// baselineIters is the accurate run's iteration count (0 for the
	// golden run itself: under an accurate schedule the layout is
	// irrelevant).
	Step(sched approx.Schedule, baselineIters int) bool
	// Clone returns a copy that steps independently of the original:
	// stepping either never changes the other. Data neither will write
	// again may be shared.
	Clone() State
	// Result assembles the outcome of the iterations stepped so far
	// without changing the state.
	Result() Result
}

// Run executes app on p under sched: Start, then Step until the outer
// loop ends.
func Run(app App, p Params, sched approx.Schedule, baselineIters int) (Result, error) {
	if err := sched.Validate(app.Blocks()); err != nil {
		return Result{}, err
	}
	s, err := app.Start(p)
	if err != nil {
		return Result{}, err
	}
	for s.Step(sched, baselineIters) {
	}
	return s.Result(), nil
}

// Seed derives a deterministic RNG seed from an app name and parameters,
// so the golden run and every approximate run of the same input see
// identical synthetic data.
func Seed(appName string, p Params) int64 {
	h := fnv.New64a()
	h.Write([]byte(appName))
	h.Write([]byte(p.Key()))
	return int64(h.Sum64() & math.MaxInt64)
}

// Noise returns a deterministic pseudo-random value in [-1, 1) keyed by a
// seed and a tuple of indices (splitmix64 finalizer). Apps use it to
// synthesize observation noise that is a pure function of the input — the
// same for the golden run and every approximate run, no matter how many
// draws each consumed from its algorithmic RNG stream.
func Noise(seed int64, idx ...int64) float64 {
	x := uint64(seed)
	for _, v := range idx {
		x ^= uint64(v) + 0x9e3779b97f4a7c15
		x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
		x = (x ^ (x >> 27)) * 0x94d049bb133111eb
		x ^= x >> 31
	}
	// Map the top 53 bits to [0,1), then shift to [-1,1).
	return float64(x>>11)/float64(1<<53)*2 - 1
}

// Eval is a fully scored run: the raw result plus its comparison against
// the golden (accurate) run of the same parameters.
type Eval struct {
	Result
	Golden *Result
	// Degradation is the QoS degradation versus the golden run.
	Degradation float64
	// Speedup is goldenWork/work (>1 is faster, <1 backfired).
	Speedup float64
	// WorkSavedPct is 100·(1-work/goldenWork).
	WorkSavedPct float64
}

// goldenEntry is one singleflight slot of the golden cache: the first
// caller computes the run inside the sync.Once, every concurrent caller
// for the same parameters blocks on that same Once instead of repeating
// the (expensive, deterministic) accurate run.
type goldenEntry struct {
	once sync.Once
	res  *Result
	err  error

	mu sync.Mutex
	// cks maps an iteration count k to the accurate state after k
	// iterations, built at most once. The golden run fills 0 and its
	// end; Evaluate adds the phase boundaries it resumes from.
	cks map[int]func() State
	// seen is what checkpoint_bytes has counted of the checkpoints so
	// far (retainedBytes), so data they share counts once.
	seen map[uintptr]bool
}

// Runner caches golden runs per parameter set and scores approximate runs
// against them. Every evaluation resumes from an accurate checkpoint of
// the golden run: a schedule's iterations before its first approximated
// phase are the golden run's, so they are cloned rather than re-run. It
// is safe for concurrent use: concurrent golden misses for the same
// parameters are deduplicated to a single run, and each checkpoint is
// built once.
type Runner struct {
	App App

	mu     sync.Mutex
	golden map[string]*goldenEntry

	// Metric names, bound once.
	goldenHit, goldenMiss, evaluate, skippedIters, steppedIters, checkpointBytes string
}

// NewRunner returns a Runner for app.
func NewRunner(app App) *Runner {
	m := "apps." + app.Name() + "."
	return &Runner{
		App:             app,
		golden:          make(map[string]*goldenEntry),
		goldenHit:       m + "golden.hit",
		goldenMiss:      m + "golden.miss",
		evaluate:        m + "evaluate",
		skippedIters:    m + "resume.skipped_iters",
		steppedIters:    m + "resume.stepped_iters",
		checkpointBytes: m + "resume.checkpoint_bytes",
	}
}

// Golden returns the accurate run for p, computing and caching it on first
// use. Errors are cached too: the apps are deterministic, so a failing
// golden run would fail identically on every retry.
func (r *Runner) Golden(p Params) (*Result, error) {
	e, err := r.entry(p)
	return e.res, err
}

// entry returns p's golden entry with its run completed.
func (r *Runner) entry(p Params) (*goldenEntry, error) {
	key := p.Key()
	r.mu.Lock()
	e, ok := r.golden[key]
	if !ok {
		e = &goldenEntry{}
		r.golden[key] = e
	}
	r.mu.Unlock()
	if ok {
		obs.Inc(r.goldenHit)
	} else {
		obs.Inc(r.goldenMiss)
	}
	e.once.Do(func() { e.err = r.runGolden(e, p) })
	return e, e.err
}

// runGolden runs p accurately to the end, keeping the start and end
// states as e's first checkpoints.
func (r *Runner) runGolden(e *goldenEntry, p Params) error {
	s, err := r.App.Start(p)
	if err != nil {
		return fmt.Errorf("golden run of %s: %w", r.App.Name(), err)
	}
	start := s.Clone()
	acc := approx.AccurateSchedule(len(r.App.Blocks()))
	for s.Step(acc, 0) {
	}
	res := s.Result()
	e.res = &res
	e.cks = map[int]func() State{}
	e.seen = map[uintptr]bool{}
	r.keep(e, 0, start)
	r.keep(e, res.OuterIters, s)
	return nil
}

// keep stores s as e's checkpoint after k iterations.
func (r *Runner) keep(e *goldenEntry, k int, s State) {
	r.count(e, s)
	e.cks[k] = func() State { return s }
}

// count adds what checkpoint s holds beyond e's other checkpoints to
// checkpoint_bytes.
func (r *Runner) count(e *goldenEntry, s State) {
	e.mu.Lock()
	n := retainedBytes(s, e.seen)
	e.mu.Unlock()
	obs.Add(r.checkpointBytes, n)
}

// checkpoint returns the accurate state after k iterations of e's
// golden run (0 <= k <= its OuterIters), building it on first use by
// stepping a clone of the nearest lower checkpoint. Concurrent callers
// for the same k share one build. The returned state is shared: clone it
// before stepping.
func (r *Runner) checkpoint(e *goldenEntry, k int) State {
	e.mu.Lock()
	get, ok := e.cks[k]
	if !ok {
		lo := 0
		for j := range e.cks {
			if j < k && j > lo {
				lo = j
			}
		}
		from := e.cks[lo]
		get = sync.OnceValue(func() State {
			s := from().Clone()
			acc := approx.AccurateSchedule(len(r.App.Blocks()))
			for i := lo; i < k; i++ {
				s.Step(acc, 0)
			}
			r.count(e, s)
			return s
		})
		e.cks[k] = get
	}
	e.mu.Unlock()
	return get()
}

// resumeIter is the iteration a run under sched resumes from: the first
// iteration of its first approximated phase, or the golden run's end
// when it approximates nothing. Every earlier iteration runs at level
// zero, exactly as in the golden run — which is why an app whose
// iteration count depends on the levels (lulesh, pso) still resumes
// correctly: the count can only diverge after this point.
func resumeIter(sched approx.Schedule, goldenIters int) int {
	for ph, cfg := range sched.Levels {
		if !cfg.IsAccurate() {
			return min(approx.PhaseStart(ph, goldenIters, sched.Phases), goldenIters)
		}
	}
	return goldenIters
}

// Evaluate runs the app under sched and scores it against the golden
// run. The run resumes from the golden run's checkpoint at resumeIter,
// so its Result — work and iteration counts, signature and output — is
// that of a full run from Start.
func (r *Runner) Evaluate(p Params, sched approx.Schedule) (*Eval, error) {
	if err := sched.Validate(r.App.Blocks()); err != nil {
		return nil, err
	}
	obs.Inc(r.evaluate)
	e, err := r.entry(p)
	if err != nil {
		return nil, err
	}
	g := e.res
	from := resumeIter(sched, g.OuterIters)
	s := r.checkpoint(e, from).Clone()
	for s.Step(sched, g.OuterIters) {
	}
	res := s.Result()
	obs.Add(r.skippedIters, int64(from))
	obs.Add(r.steppedIters, int64(res.OuterIters-from))
	deg, err := r.App.QoS(g.Output, res.Output)
	if err != nil {
		return nil, fmt.Errorf("qos of %s: %w", r.App.Name(), err)
	}
	// Guard the models against pathological blowups (NaN from an unstable
	// approximate run): report a large-but-finite degradation instead.
	if math.IsNaN(deg) || deg > MaxDegradation {
		deg = MaxDegradation
	}
	return &Eval{
		Result:       res,
		Golden:       g,
		Degradation:  deg,
		Speedup:      trace.Speedup(g.Work, res.Work),
		WorkSavedPct: trace.WorkSavedPercent(g.Work, res.Work),
	}, nil
}

// MaxDegradation caps reported QoS degradation; beyond this the output is
// unusable anyway and unbounded values would destabilize regression.
const MaxDegradation = 200.0
