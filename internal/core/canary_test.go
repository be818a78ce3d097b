package core

import (
	"math"
	"testing"

	"opprox/internal/approx"
	"opprox/internal/apps"
	"opprox/internal/qos"
	"opprox/internal/trace"
)

// sizeBiasedApp's degradation grows super-linearly in the input size, so
// models trained only on the small canary size are systematically biased
// low at the production size — the situation canary calibration exists
// for.
type sizeBiasedApp struct{}

func (sizeBiasedApp) Name() string { return "sizebiased" }

func (sizeBiasedApp) Blocks() []approx.Block {
	return []approx.Block{
		{Name: "kernel", Technique: approx.Perforation, MaxLevel: 3},
	}
}

func (sizeBiasedApp) Params() []apps.ParamSpec {
	// The representative (training) values are canary-sized; production
	// runs at size 40.
	return []apps.ParamSpec{
		{Name: "size", Values: []float64{8, 12}, Default: 40},
	}
}

func (sizeBiasedApp) QoS(exact, approximate []float64) (float64, error) {
	return qos.Distortion(exact, approximate)
}

func (a sizeBiasedApp) Start(p apps.Params) (apps.State, error) {
	size := p.Vector(a.Params())[0]
	return &toyState{sig: "kernel", iterate: func(rec *trace.Recorder, iter int, lv approx.Config) float64 {
		rec.Call("kernel", uint64((8-2*lv[0])*int(size)))
		rec.Overhead(uint64(8 * size))
		// Quadratic size coupling: the canary sizes underestimate it.
		// Scaled so the production-size degradation stays below the
		// 200% reporting cap (predictions clamp there).
		return float64(lv[0]) * (size / 40) * (size / 40)
	}}, nil
}

var _ apps.App = sizeBiasedApp{}

func TestCanaryCalibrationReducesBias(t *testing.T) {
	runner := apps.NewRunner(sizeBiasedApp{})
	opts := fastOptions()
	opts.Phases = 2
	tr, err := Train(runner, opts) // trains on canary sizes 8 and 12 only
	if err != nil {
		t.Fatal(err)
	}
	production := apps.Params{"size": 40}

	biasBefore, err := meanAbsDegError(runner, tr, production)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Calibrated() {
		t.Fatal("models should start uncalibrated")
	}
	if err := tr.CalibrateCanary(runner, production, 4, 99); err != nil {
		t.Fatal(err)
	}
	if !tr.Calibrated() {
		t.Fatal("calibration did not install")
	}
	biasAfter, err := meanAbsDegError(runner, tr, production)
	if err != nil {
		t.Fatal(err)
	}
	if biasAfter >= biasBefore {
		t.Fatalf("calibration did not reduce degradation bias: %.3f -> %.3f", biasBefore, biasAfter)
	}

	tr.ClearCalibration()
	if tr.Calibrated() {
		t.Fatal("ClearCalibration did not clear")
	}
	biasCleared, err := meanAbsDegError(runner, tr, production)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(biasCleared-biasBefore) > 1e-9 {
		t.Fatalf("clearing calibration did not restore the original predictions: %.6f vs %.6f",
			biasCleared, biasBefore)
	}
}

func TestCanaryCalibrationArgs(t *testing.T) {
	runner := apps.NewRunner(sizeBiasedApp{})
	opts := fastOptions()
	opts.Phases = 2
	tr, err := Train(runner, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.CalibrateCanary(runner, apps.Params{"size": 40}, 0, 1); err == nil {
		t.Fatal("want error for zero probes")
	}
}

// meanAbsDegError measures the models' degradation error over every level
// of the single block in each phase.
func meanAbsDegError(runner *apps.Runner, tr *Trained, p apps.Params) (float64, error) {
	sum, n := 0.0, 0
	for ph := 0; ph < tr.Phases; ph++ {
		for lv := 1; lv <= tr.Blocks[0].MaxLevel; lv++ {
			cfg := approx.Config{lv}
			_, pred, err := tr.PredictPhase(p, ph, cfg, false)
			if err != nil {
				return 0, err
			}
			ev, err := runner.Evaluate(p, approx.SinglePhaseSchedule(tr.Phases, ph, cfg))
			if err != nil {
				return 0, err
			}
			sum += math.Abs(pred - ev.Degradation)
			n++
		}
	}
	return sum / float64(n), nil
}

func TestMedian(t *testing.T) {
	if median(nil) != 0 {
		t.Fatal("empty median should be 0")
	}
	if median([]float64{3, 1, 2}) != 2 {
		t.Fatal("odd median wrong")
	}
	if median([]float64{4, 1, 2, 3}) != 2.5 {
		t.Fatal("even median wrong")
	}
}
