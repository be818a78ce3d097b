package apps_test

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"opprox/internal/approx"
	"opprox/internal/apps"
	"opprox/internal/apps/comd"
	"opprox/internal/apps/lulesh"
	"opprox/internal/apps/pso"
	"opprox/internal/apps/tracker"
	"opprox/internal/apps/vidpipe"
	"opprox/internal/trace"
)

func allApps() []apps.App {
	return []apps.App{lulesh.New(), comd.New(), vidpipe.New(), tracker.New(), pso.New()}
}

// Every benchmark application must satisfy the same contract OPPROX
// assumes: deterministic golden runs, zero degradation at level zero, work
// that shrinks under approximation, valid metadata.
func TestConformance(t *testing.T) {
	for _, a := range allApps() {
		a := a
		t.Run(a.Name(), func(t *testing.T) {
			blocks := a.Blocks()
			if len(blocks) == 0 {
				t.Fatal("no approximable blocks")
			}
			for _, b := range blocks {
				if b.Name == "" || b.MaxLevel < 1 {
					t.Fatalf("bad block descriptor %+v", b)
				}
			}
			if len(a.Params()) == 0 {
				t.Fatal("no input parameters")
			}
			for _, spec := range a.Params() {
				if len(spec.Values) == 0 {
					t.Fatalf("parameter %q has no representative values", spec.Name)
				}
			}

			p := apps.DefaultParams(a)
			acc := approx.AccurateSchedule(len(blocks))

			g1, err := apps.Run(a, p, acc, 0)
			if err != nil {
				t.Fatalf("golden run: %v", err)
			}
			g2, err := apps.Run(a, p, acc, 0)
			if err != nil {
				t.Fatalf("second golden run: %v", err)
			}
			if !reflect.DeepEqual(g1.Output, g2.Output) {
				t.Fatal("golden runs are not deterministic")
			}
			if g1.Work != g2.Work || g1.OuterIters != g2.OuterIters {
				t.Fatalf("golden accounting not deterministic: %d/%d vs %d/%d",
					g1.Work, g1.OuterIters, g2.Work, g2.OuterIters)
			}
			if g1.Work == 0 || g1.OuterIters == 0 || len(g1.Output) == 0 {
				t.Fatalf("degenerate golden run: %+v", g1)
			}
			if g1.CtxSig == "" {
				t.Fatal("empty control-flow signature")
			}

			// Zero levels give zero degradation, bit for bit.
			deg, err := a.QoS(g1.Output, g2.Output)
			if err != nil {
				t.Fatalf("QoS: %v", err)
			}
			if deg != 0 {
				t.Fatalf("accurate-vs-accurate degradation = %g, want 0", deg)
			}

			// A phase-aware accurate schedule is still exactly accurate.
			multi := approx.UniformSchedule(4, make(approx.Config, len(blocks)))
			gm, err := apps.Run(a, p, multi, g1.OuterIters)
			if err != nil {
				t.Fatalf("multi-phase accurate run: %v", err)
			}
			if !reflect.DeepEqual(gm.Output, g1.Output) {
				t.Fatal("4-phase accurate schedule changed the output")
			}

			// Max approximation reduces work.
			maxCfg := make(approx.Config, len(blocks))
			for i, b := range blocks {
				maxCfg[i] = b.MaxLevel
			}
			am, err := apps.Run(a, p, approx.UniformSchedule(1, maxCfg), g1.OuterIters)
			if err != nil {
				t.Fatalf("max-AL run: %v", err)
			}
			// Total work can rise when approximation inflates a
			// convergence loop's iteration count (the paper's Fig. 3), so
			// the invariant is on work per iteration.
			goldenWPI := float64(g1.Work) / float64(g1.OuterIters)
			approxWPI := float64(am.Work) / float64(am.OuterIters)
			if approxWPI >= goldenWPI {
				t.Fatalf("max approximation did not reduce per-iteration work: %.1f >= %.1f", approxWPI, goldenWPI)
			}
			deg, err = a.QoS(g1.Output, am.Output)
			if err != nil {
				t.Fatalf("QoS of max run: %v", err)
			}
			if deg <= 0 {
				t.Fatalf("max approximation degradation = %g, want > 0", deg)
			}

			// Invalid schedules are rejected.
			bad := approx.UniformSchedule(1, make(approx.Config, len(blocks)+1))
			if _, err := apps.Run(a, p, bad, 0); err == nil {
				t.Fatal("invalid schedule accepted")
			}
		})
	}
}

// Per-block single-knob runs must reduce per-block work monotonically as
// the level rises, for every app and block.
func TestPerBlockWorkMonotone(t *testing.T) {
	for _, a := range allApps() {
		a := a
		t.Run(a.Name(), func(t *testing.T) {
			p := apps.DefaultParams(a)
			blocks := a.Blocks()
			runner := apps.NewRunner(a)
			g, err := runner.Golden(p)
			if err != nil {
				t.Fatal(err)
			}
			for bi, b := range blocks {
				prevWorkPerIter := float64(g.Work) / float64(g.OuterIters) * 1.0001
				for lv := 1; lv <= b.MaxLevel; lv++ {
					cfg := make(approx.Config, len(blocks))
					cfg[bi] = lv
					ev, err := runner.Evaluate(p, approx.UniformSchedule(1, cfg))
					if err != nil {
						t.Fatalf("block %s level %d: %v", b.Name, lv, err)
					}
					// Iteration counts may move, so compare per-iteration
					// work, which the level controls directly.
					wpi := float64(ev.Work) / float64(ev.OuterIters)
					if wpi > prevWorkPerIter {
						t.Fatalf("block %s level %d: per-iter work %.1f rose above %.1f",
							b.Name, lv, wpi, prevWorkPerIter)
					}
					prevWorkPerIter = wpi * 1.0001 // small tolerance
				}
			}
		})
	}
}

// Phase-limited approximation must cost no more work than the same
// configuration applied to the whole run.
func TestPhaseLimitedCheaperThanUniform(t *testing.T) {
	for _, a := range allApps() {
		a := a
		t.Run(a.Name(), func(t *testing.T) {
			p := apps.DefaultParams(a)
			runner := apps.NewRunner(a)
			blocks := a.Blocks()
			cfg := make(approx.Config, len(blocks))
			for i := range cfg {
				cfg[i] = 1
			}
			full, err := runner.Evaluate(p, approx.UniformSchedule(1, cfg))
			if err != nil {
				t.Fatal(err)
			}
			for ph := 0; ph < 4; ph++ {
				one, err := runner.Evaluate(p, approx.SinglePhaseSchedule(4, ph, cfg))
				if err != nil {
					t.Fatal(err)
				}
				// Per-iteration comparison again (iteration counts float).
				fullWPI := float64(full.Work) / float64(full.OuterIters)
				oneWPI := float64(one.Work) / float64(one.OuterIters)
				if oneWPI < fullWPI*0.99 {
					t.Logf("phase %d per-iter work %.1f, full %.1f (ok: phase-limited cheaper in its window only)", ph, oneWPI, fullWPI)
				}
				if one.Degradation < 0 {
					t.Fatalf("negative degradation %g", one.Degradation)
				}
			}
		})
	}
}

// The Runner caches golden runs and scores evaluations consistently.
func TestRunnerEvaluate(t *testing.T) {
	a := pso.New()
	runner := apps.NewRunner(a)
	p := apps.DefaultParams(a)
	g1, err := runner.Golden(p)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := runner.Golden(p)
	if err != nil {
		t.Fatal(err)
	}
	if g1 != g2 {
		t.Fatal("golden result not cached (pointer differs)")
	}
	ev, err := runner.Evaluate(p, approx.AccurateSchedule(len(a.Blocks())))
	if err != nil {
		t.Fatal(err)
	}
	if ev.Degradation != 0 || ev.Speedup != 1 || ev.WorkSavedPct != 0 {
		t.Fatalf("accurate evaluation should be neutral: %+v", ev)
	}
	bad := approx.UniformSchedule(1, approx.Config{99, 0, 0})
	if _, err := runner.Evaluate(p, bad); err == nil {
		t.Fatal("invalid schedule accepted by Evaluate")
	}
}

// A uniform schedule must behave identically no matter how many phases it
// is expressed in: phase boundaries are bookkeeping, not behavior.
func TestUniformScheduleIsPhaseCountInvariant(t *testing.T) {
	for _, a := range allApps() {
		a := a
		t.Run(a.Name(), func(t *testing.T) {
			p := apps.DefaultParams(a)
			blocks := a.Blocks()
			cfg := make(approx.Config, len(blocks))
			for i := range cfg {
				cfg[i] = 1
			}
			g, err := apps.Run(a, p, approx.AccurateSchedule(len(blocks)), 0)
			if err != nil {
				t.Fatal(err)
			}
			one, err := apps.Run(a, p, approx.UniformSchedule(1, cfg), g.OuterIters)
			if err != nil {
				t.Fatal(err)
			}
			four, err := apps.Run(a, p, approx.UniformSchedule(4, cfg), g.OuterIters)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(one.Output, four.Output) || one.Work != four.Work {
				t.Fatalf("1-phase and 4-phase uniform schedules diverge: work %d vs %d",
					one.Work, four.Work)
			}
		})
	}
}

// Approximate runs under the same schedule must be deterministic.
func TestApproximateRunsDeterministic(t *testing.T) {
	for _, a := range allApps() {
		a := a
		t.Run(a.Name(), func(t *testing.T) {
			p := apps.DefaultParams(a)
			blocks := a.Blocks()
			cfg := make(approx.Config, len(blocks))
			for i, b := range blocks {
				cfg[i] = (b.MaxLevel + 1) / 2
			}
			g, err := apps.Run(a, p, approx.AccurateSchedule(len(blocks)), 0)
			if err != nil {
				t.Fatal(err)
			}
			sched := approx.SinglePhaseSchedule(4, 1, cfg)
			r1, err := apps.Run(a, p, sched, g.OuterIters)
			if err != nil {
				t.Fatal(err)
			}
			r2, err := apps.Run(a, p, sched, g.OuterIters)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(r1.Output, r2.Output) || r1.Work != r2.Work {
				t.Fatal("approximate runs are not deterministic")
			}
		})
	}
}

// randomParams draws every parameter uniformly between its smallest and
// largest representative value: whole where all of them are whole, two
// decimals otherwise.
func randomParams(rng *rand.Rand, a apps.App) apps.Params {
	p := apps.Params{}
	for _, s := range a.Params() {
		lo, hi, whole := s.Values[0], s.Values[0], true
		for _, v := range s.Values {
			lo, hi = math.Min(lo, v), math.Max(hi, v)
			whole = whole && v == math.Trunc(v)
		}
		v := lo + rng.Float64()*(hi-lo)
		if whole {
			v = math.Round(v)
		} else {
			v = math.Round(v*100) / 100
		}
		p[s.Name] = v
	}
	return p
}

// randomSchedule approximates one or two random phases of `phases` with
// random non-accurate configurations and leaves the rest accurate.
func randomSchedule(rng *rand.Rand, blocks []approx.Block, phases int) approx.Schedule {
	sched := approx.UniformSchedule(phases, make(approx.Config, len(blocks)))
	for n := 1 + rng.Intn(2); n > 0; n-- {
		cfg := make(approx.Config, len(blocks))
		for i, b := range blocks {
			cfg[i] = rng.Intn(b.MaxLevel + 1)
		}
		if cfg.IsAccurate() {
			bi := rng.Intn(len(blocks))
			cfg[bi] = 1 + rng.Intn(blocks[bi].MaxLevel)
		}
		sched.Levels[rng.Intn(phases)] = cfg
	}
	return sched
}

// TestResumeMatchesRun is the resume-equivalence property: for every app,
// random inputs and random schedules over 2, 3, 4 and 8 phases, a
// Runner's Evaluate — which resumes from the golden run's checkpoint at
// the first approximated phase — must report exactly what a full run
// from Start reports: the output bit for bit, the work, the iteration
// count, the signature, and the degradation and speedup scored from
// them. Uniform and all-accurate schedules (resumed from the start and
// from the golden run's end) are checked too.
func TestResumeMatchesRun(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for _, a := range allApps() {
		a := a
		t.Run(a.Name(), func(t *testing.T) {
			runner := apps.NewRunner(a)
			blocks := a.Blocks()
			for trial := 0; trial < 4; trial++ {
				p := randomParams(rng, a)
				g, err := runner.Golden(p)
				if err != nil {
					t.Fatal(err)
				}
				var scheds []approx.Schedule
				for _, phases := range []int{2, 3, 4, 8} {
					scheds = append(scheds, randomSchedule(rng, blocks, phases))
				}
				scheds = append(scheds,
					approx.UniformSchedule(3, randomSchedule(rng, blocks, 1).Levels[0]),
					approx.UniformSchedule(4, make(approx.Config, len(blocks))))
				for _, sched := range scheds {
					ev, err := runner.Evaluate(p, sched)
					if err != nil {
						t.Fatal(err)
					}
					want, err := apps.Run(a, p, sched, g.OuterIters)
					if err != nil {
						t.Fatal(err)
					}
					deg, err := a.QoS(g.Output, want.Output)
					if err != nil {
						t.Fatal(err)
					}
					if math.IsNaN(deg) || deg > apps.MaxDegradation {
						deg = apps.MaxDegradation
					}
					where := fmt.Sprintf("params %v, schedule %s", p, sched)
					if len(ev.Output) != len(want.Output) {
						t.Fatalf("%s: output length %d, want %d", where, len(ev.Output), len(want.Output))
					}
					for i := range want.Output {
						if math.Float64bits(ev.Output[i]) != math.Float64bits(want.Output[i]) {
							t.Fatalf("%s: output[%d] = %v, want %v", where, i, ev.Output[i], want.Output[i])
						}
					}
					if ev.Work != want.Work || ev.OuterIters != want.OuterIters || ev.CtxSig != want.CtxSig {
						t.Fatalf("%s: work/iters/sig %d/%d/%q, want %d/%d/%q", where,
							ev.Work, ev.OuterIters, ev.CtxSig, want.Work, want.OuterIters, want.CtxSig)
					}
					if math.Float64bits(ev.Degradation) != math.Float64bits(deg) ||
						math.Float64bits(ev.Speedup) != math.Float64bits(trace.Speedup(g.Work, want.Work)) {
						t.Fatalf("%s: degradation/speedup %v/%v, want %v/%v", where,
							ev.Degradation, ev.Speedup, deg, trace.Speedup(g.Work, want.Work))
					}
				}
			}
		})
	}
}
