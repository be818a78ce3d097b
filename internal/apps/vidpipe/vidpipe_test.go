package vidpipe

import (
	"math"
	"testing"

	"opprox/internal/approx"
	"opprox/internal/apps"
)

func golden(t *testing.T, p apps.Params) apps.Result {
	t.Helper()
	a := New()
	res, err := apps.Run(a, p, approx.AccurateSchedule(len(a.Blocks())), 0)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestFrameCountFromParams(t *testing.T) {
	p := apps.Params{"fps": 12, "duration": 2, "bitrate": 4, "filterorder": 0}
	res := golden(t, p)
	if res.OuterIters != 24 {
		t.Fatalf("iterations = %d, want fps*duration = 24", res.OuterIters)
	}
	if len(res.Output) != 24*frameH*frameW {
		t.Fatalf("output length = %d, want %d", len(res.Output), 24*frameH*frameW)
	}
}

func TestFilterOrderChangesControlFlowAndOutput(t *testing.T) {
	// Paper Fig. 7: swapping deflate and edge detection drastically
	// changes the result; Fig. 8: the AB sequence is input-dependent.
	base := apps.Params{"fps": 12, "duration": 2, "bitrate": 4}
	p0 := base.Clone()
	p0["filterorder"] = 0
	p1 := base.Clone()
	p1["filterorder"] = 1
	r0 := golden(t, p0)
	r1 := golden(t, p1)
	if r0.CtxSig == r1.CtxSig {
		t.Fatalf("filter order did not change the control-flow signature: %q", r0.CtxSig)
	}
	same := true
	for i := range r0.Output {
		if r0.Output[i] != r1.Output[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("filter order did not change the output")
	}
}

func TestPixelRangeValid(t *testing.T) {
	res := golden(t, apps.DefaultParams(New()))
	for i, v := range res.Output {
		if math.IsNaN(v) || v < -300 || v > 600 {
			t.Fatalf("output[%d] = %g outside plausible pixel range", i, v)
		}
	}
}

func TestPSNRMethod(t *testing.T) {
	a := New()
	res := golden(t, apps.DefaultParams(a))
	p, err := a.PSNR(res.Output, res.Output)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(p, 1) {
		t.Fatalf("self-PSNR = %g, want +Inf", p)
	}
}

func TestQoSIsCapMinusPSNR(t *testing.T) {
	a := New()
	g := golden(t, apps.DefaultParams(a))
	approxRun, err := apps.Run(a, apps.DefaultParams(a), approx.UniformSchedule(1, approx.Config{3, 0, 0}), g.OuterIters)
	if err != nil {
		t.Fatal(err)
	}
	psnr, err := a.PSNR(g.Output, approxRun.Output)
	if err != nil {
		t.Fatal(err)
	}
	deg, err := a.QoS(g.Output, approxRun.Output)
	if err != nil {
		t.Fatal(err)
	}
	if want := PSNRCap - psnr; math.Abs(deg-want) > 1e-9 && !(psnr >= PSNRCap && deg == 0) {
		t.Fatalf("deg = %g, want %g", deg, want)
	}
}

func TestLatePhaseNearlyFree(t *testing.T) {
	// The clip settles, so even aggressive approximation of the final
	// quarter barely moves PSNR (paper §5.1.1 behavior).
	a := New()
	runner := apps.NewRunner(a)
	p := apps.DefaultParams(a)
	cfg := approx.Config{5, 5, 3}
	early, err := runner.Evaluate(p, approx.SinglePhaseSchedule(4, 0, cfg))
	if err != nil {
		t.Fatal(err)
	}
	late, err := runner.Evaluate(p, approx.SinglePhaseSchedule(4, 3, cfg))
	if err != nil {
		t.Fatal(err)
	}
	if late.Degradation >= early.Degradation/2 {
		t.Fatalf("late phase (%.2f) not far gentler than early (%.2f)",
			late.Degradation, early.Degradation)
	}
}

func TestInvalidParams(t *testing.T) {
	a := New()
	if _, err := apps.Run(a, apps.Params{"fps": 0, "duration": 2, "bitrate": 4}, approx.AccurateSchedule(3), 0); err == nil {
		t.Fatal("want error for zero fps")
	}
	if _, err := apps.Run(a, apps.Params{"fps": 12, "duration": 2, "bitrate": 0}, approx.AccurateSchedule(3), 0); err == nil {
		t.Fatal("want error for zero bitrate")
	}
}

func TestBitrateControlsQuality(t *testing.T) {
	// Lower bitrate → coarser quantizer → golden reconstruction farther
	// from an infinite-bitrate reference. Compare the reconstructions of
	// two bitrates against the same filtered source by proxy: the higher
	// bitrate must produce at least as much encoder work (more nonzero
	// coefficients surviving).
	lo := golden(t, apps.Params{"fps": 12, "duration": 2, "bitrate": 2, "filterorder": 0})
	hi := golden(t, apps.Params{"fps": 12, "duration": 2, "bitrate": 6, "filterorder": 0})
	if lo.Work != hi.Work {
		// Work is identical by construction (same rows processed) — this
		// guards the invariant.
		t.Fatalf("bitrate changed abstract work: %d vs %d", lo.Work, hi.Work)
	}
	diff := 0.0
	for i := range lo.Output {
		diff += math.Abs(lo.Output[i] - hi.Output[i])
	}
	if diff == 0 {
		t.Fatal("bitrate has no effect on reconstruction")
	}
}
