package apps

import (
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"opprox/internal/approx"
	"opprox/internal/trace"
)

// countingApp is a cheap deterministic app that counts how many runs it
// started, so the tests can assert the golden cache's singleflight
// semantics: N concurrent misses for the same parameters must collapse
// into exactly one accurate run, and every evaluation must resume from a
// checkpoint rather than start over. Each of its countingIters
// iterations draws from a Source, so a resume that lost its place in the
// stream would change the output.
type countingApp struct {
	starts atomic.Int64
}

const countingIters = 8

func (a *countingApp) Name() string { return "counting" }

func (a *countingApp) Blocks() []approx.Block {
	return []approx.Block{{Name: "blk", Technique: approx.Perforation, MaxLevel: 3}}
}

func (a *countingApp) Params() []ParamSpec {
	return []ParamSpec{{Name: "n", Values: []float64{1, 2}, Default: 1}}
}

func (a *countingApp) Start(p Params) (State, error) {
	a.starts.Add(1)
	s := &countingState{n: p.Vector(a.Params())[0]}
	s.src.Seed(int64(s.n))
	s.rng = rand.New(&s.src)
	return s, nil
}

func (a *countingApp) QoS(exact, approximate []float64) (float64, error) {
	d := approximate[1] - exact[1]
	if d < 0 {
		d = -d
	}
	return d, nil
}

type countingState struct {
	n   float64
	src Source
	rng *rand.Rand
	acc float64
	rec trace.Recorder
}

func (s *countingState) Step(sched approx.Schedule, baselineIters int) bool {
	iter := s.rec.Iterations()
	if iter >= countingIters {
		return false
	}
	s.rec.BeginIteration()
	lv := sched.LevelsAt(approx.PhaseOf(iter, baselineIters, sched.Phases))[0]
	s.rec.Call("blk", uint64(100-10*lv))
	s.acc += float64(lv) * (1 + s.rng.Float64())
	return true
}

func (s *countingState) Clone() State {
	c := *s
	c.rng = rand.New(&c.src)
	c.rec = s.rec.Clone()
	return &c
}

func (s *countingState) Result() Result {
	return Result{
		Output:     []float64{s.n * 10, s.acc},
		Work:       s.rec.TotalWork(),
		OuterIters: s.rec.Iterations(),
		CtxSig:     s.rec.ContextSignature(),
	}
}

// TestGoldenSingleflight floods the golden cache with concurrent misses
// for the same two parameter sets and asserts each golden ran exactly
// once and every caller saw the same cached result.
func TestGoldenSingleflight(t *testing.T) {
	app := &countingApp{}
	r := NewRunner(app)
	params := []Params{{"n": 1}, {"n": 2}}

	const goroutines = 32
	goldens := make([]*Result, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			res, err := r.Golden(params[g%len(params)])
			if err != nil {
				t.Error(err)
				return
			}
			goldens[g] = res
		}(g)
	}
	wg.Wait()
	if got := app.starts.Load(); got != int64(len(params)) {
		t.Fatalf("golden ran %d times for %d parameter sets — singleflight failed", got, len(params))
	}
	for g := 2; g < goroutines; g++ {
		if goldens[g] != goldens[g%len(params)] {
			t.Fatalf("goroutine %d saw a different golden pointer", g)
		}
	}
}

// TestEvaluateConcurrent runs Evaluate from many goroutines across
// overlapping schedules: uniform ones, which resume from the start, and
// single-phase ones approximating phase 2 of 4, which all resume from
// the one checkpoint after four iterations. Every Eval must match a
// serial Run from Start bit for bit. Run under `go test -race ./...`
// this is the Runner's race regression test for the golden cache and
// the shared checkpoints.
func TestEvaluateConcurrent(t *testing.T) {
	app := &countingApp{}
	r := NewRunner(app)
	maxLevel := app.Blocks()[0].MaxLevel
	p := Params{"n": 1}
	sched := func(k int) approx.Schedule {
		cfg := approx.Config{k % (maxLevel + 1)}
		if k > maxLevel {
			return approx.SinglePhaseSchedule(4, 2, cfg)
		}
		return approx.UniformSchedule(1, cfg)
	}
	nScheds := 2 * (maxLevel + 1)
	want := make([]Result, nScheds)
	for k := range want {
		res, err := Run(app, p, sched(k), countingIters)
		if err != nil {
			t.Fatal(err)
		}
		want[k] = res
	}
	serialStarts := app.starts.Load()

	const goroutines = 24
	const itersPer = 20
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < itersPer; i++ {
				k := (g + i) % nScheds
				ev, err := r.Evaluate(p, sched(k))
				if err != nil {
					t.Error(err)
					return
				}
				w := want[k]
				if math.Float64bits(ev.Output[1]) != math.Float64bits(w.Output[1]) ||
					ev.Work != w.Work || ev.OuterIters != w.OuterIters || ev.CtxSig != w.CtxSig {
					t.Errorf("schedule %s: resumed run %+v, serial run %+v", sched(k), ev.Result, w)
				}
			}
		}(g)
	}
	wg.Wait()
	// One golden start for the single parameter set; every evaluation
	// resumed from a checkpoint.
	if got := app.starts.Load() - serialStarts; got != 1 {
		t.Fatalf("app started %d runs, want 1 (the golden)", got)
	}
}

// TestGoldenCachesErrors verifies a failing golden run is cached like a
// successful one: deterministic apps fail identically every time, so
// retrying would only burn cycles.
func TestGoldenCachesErrors(t *testing.T) {
	app := &failingApp{}
	r := NewRunner(app)
	p := Params{"n": 1}
	if _, err := r.Golden(p); err == nil {
		t.Fatal("want error")
	}
	if _, err := r.Golden(p); err == nil {
		t.Fatal("want cached error")
	}
	if got := app.starts.Load(); got != 1 {
		t.Fatalf("failing golden ran %d times, want 1", got)
	}
}

type failingApp struct{ countingApp }

func (a *failingApp) Start(Params) (State, error) {
	a.starts.Add(1)
	return nil, errTest
}

var errTest = &testError{}

type testError struct{}

func (*testError) Error() string { return "boom" }
