package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	"opprox/internal/approx"
	"opprox/internal/apps"
	"opprox/internal/apps/comd"
	"opprox/internal/apps/lulesh"
	"opprox/internal/apps/pso"
	"opprox/internal/apps/tracker"
	"opprox/internal/apps/vidpipe"
	"opprox/internal/core"
	"opprox/internal/flight"
	"opprox/internal/obs"
	"opprox/internal/qos"
)

// Budget levels per app. The paper uses 5/10/20% QoS degradation for the
// numeric apps and PSNR targets for FFmpeg; vidpipe's targets are
// recalibrated to its substrate (48×32 frames compress the PSNR range —
// see EXPERIMENTS.md).
type budgetSpec struct {
	label string
	value float64 // degradation budget (uniform scale)
}

func budgetsFor(appName string) []budgetSpec {
	if appName == "vidpipe" {
		// Degradation = PSNRCap - PSNR; targets 35/30/20 dB.
		return []budgetSpec{
			{"small (PSNR 35)", vidpipe.PSNRCap - 35},
			{"medium (PSNR 30)", vidpipe.PSNRCap - 30},
			{"large (PSNR 20)", vidpipe.PSNRCap - 20},
		}
	}
	return []budgetSpec{
		{"small (5%)", 5},
		{"medium (10%)", 10},
		{"large (20%)", 20},
	}
}

// Suite owns the runners and caches trained models so that experiments
// sharing a training run do not repeat it. It is safe for concurrent use
// by the parallel experiment engine: the runner map is immutable after
// NewSuite, and the trained-model cache deduplicates concurrent training
// requests for the same key into a single core.Train call.
type Suite struct {
	Seed int64
	// Quick shrinks sampling so benchmarks stay fast; the full artifacts
	// use Quick=false.
	Quick bool

	runners map[string]*apps.Runner

	trained flight.Group[*core.Trained]
}

// NewSuite builds a suite over the five benchmark applications.
func NewSuite(seed int64, quick bool) *Suite {
	s := &Suite{Seed: seed, Quick: quick, runners: map[string]*apps.Runner{}}
	for _, a := range []apps.App{lulesh.New(), comd.New(), vidpipe.New(), tracker.New(), pso.New()} {
		s.runners[a.Name()] = apps.NewRunner(a)
	}
	return s
}

// AppNames returns the benchmark names in the paper's order.
func (s *Suite) AppNames() []string {
	return []string{"lulesh", "comd", "vidpipe", "tracker", "pso"}
}

func (s *Suite) runner(name string) *apps.Runner {
	r, ok := s.runners[name]
	if !ok {
		panic(fmt.Sprintf("experiments: unknown app %q", name))
	}
	return r
}

func (s *Suite) options(phases int) core.Options {
	o := core.DefaultOptions()
	o.Seed = s.Seed
	o.Phases = phases
	if s.Quick {
		o.JointSamplesPerPhase = 12
		o.MaxParamCombos = 6
		o.Folds = 5
	}
	return o
}

// Trained returns (and caches) the trained models for one app at a phase
// count. Concurrent callers needing the same models train them exactly
// once; the rest block until that training finishes.
func (s *Suite) Trained(app string, phases int) (*core.Trained, error) {
	key := fmt.Sprintf("%s/%d", app, phases)
	return s.train(key, func() (*core.Trained, error) {
		tr, err := core.Train(s.runner(app), s.options(phases))
		if err != nil {
			return nil, fmt.Errorf("train %s (%d phases): %w", app, phases, err)
		}
		return tr, nil
	})
}

// train is the singleflight core behind Trained and trainedWith: the
// first caller for a key runs fn, every other caller (concurrent or
// later) reuses its result. Errors stay cached — a training run that
// failed once fails the same way for every experiment that needs it.
func (s *Suite) train(key string, fn func() (*core.Trained, error)) (*core.Trained, error) {
	tr, err, hit := s.trained.Do(context.TODO(), key, fn)
	if hit {
		obs.Inc("experiments.train.cached")
	} else {
		obs.Inc("experiments.train.miss")
	}
	return tr, err
}

// sampleConfigs returns a deterministic set of approximation settings used
// by the characterization figures: the per-block mid and max levels plus
// random joint configurations.
func sampleConfigs(blocks []approx.Block, n int, rng *rand.Rand) []approx.Config {
	var cfgs []approx.Config
	for bi, b := range blocks {
		for _, lv := range []int{(b.MaxLevel + 1) / 2, b.MaxLevel} {
			cfg := make(approx.Config, len(blocks))
			cfg[bi] = lv
			cfgs = append(cfgs, cfg)
		}
	}
	for len(cfgs) < n {
		cfg := make(approx.Config, len(blocks))
		nonzero := false
		for bi, b := range blocks {
			cfg[bi] = rng.Intn(b.MaxLevel + 1)
			nonzero = nonzero || cfg[bi] > 0
		}
		if nonzero {
			cfgs = append(cfgs, cfg)
		}
	}
	return cfgs
}

// phaseStats runs the sample configurations against one phase (or the
// whole run when phase < 0) and summarizes degradation and speedup.
type phaseStats struct {
	minDeg, meanDeg, maxDeg float64
	minSpd, meanSpd, maxSpd float64
	minIters, maxIters      int
}

func (s *Suite) measurePhase(app string, p apps.Params, phases, phase int, cfgs []approx.Config) (phaseStats, error) {
	runner := s.runner(app)
	st := phaseStats{minDeg: 1e18, minSpd: 1e18, minIters: 1 << 30}
	n := 0
	for _, cfg := range cfgs {
		var sched approx.Schedule
		if phase < 0 {
			sched = approx.UniformSchedule(1, cfg)
		} else {
			sched = approx.SinglePhaseSchedule(phases, phase, cfg)
		}
		ev, err := runner.Evaluate(p, sched)
		if err != nil {
			return st, err
		}
		st.meanDeg += ev.Degradation
		st.meanSpd += ev.Speedup
		if ev.Degradation < st.minDeg {
			st.minDeg = ev.Degradation
		}
		if ev.Degradation > st.maxDeg {
			st.maxDeg = ev.Degradation
		}
		if ev.Speedup < st.minSpd {
			st.minSpd = ev.Speedup
		}
		if ev.Speedup > st.maxSpd {
			st.maxSpd = ev.Speedup
		}
		if ev.OuterIters < st.minIters {
			st.minIters = ev.OuterIters
		}
		if ev.OuterIters > st.maxIters {
			st.maxIters = ev.OuterIters
		}
		n++
	}
	st.meanDeg /= float64(n)
	st.meanSpd /= float64(n)
	return st, nil
}

// degLabel renders a degradation in the app's natural unit: percent for
// the numeric apps, PSNR dB for vidpipe (paper Fig. 9d uses PSNR).
func degLabel(app string, deg float64) string {
	if app == "vidpipe" {
		return fmt.Sprintf("%.1f dB", qos.DegradationToPSNR(deg, vidpipe.PSNRCap))
	}
	return fmt.Sprintf("%.2f%%", deg)
}

// splitRecords partitions training records into halves for the model
// accuracy figures (paper §5.2 uses a 50/50 split).
func splitRecords(recs []core.Record, rng *rand.Rand) (train, test []core.Record) {
	idx := rng.Perm(len(recs))
	for i, j := range idx {
		if i%2 == 0 {
			train = append(train, recs[j])
		} else {
			test = append(test, recs[j])
		}
	}
	return train, test
}

// sortedKeys is a small helper for deterministic map iteration.
func sortedKeys[M ~map[string]V, V any](m M) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
