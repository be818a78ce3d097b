// Package vidpipe implements the video-processing benchmark modeled on
// the paper's FFmpeg pipeline (§4.1): a stream of synthetic frames flows
// through a configurable chain of filters and is then delta-encoded with
// dead-zone quantization. The outer loop enumerates frames, so its
// iteration count depends only on the input parameters (fps × duration),
// never on the approximation levels — the classic streaming-analytics
// loop. Because each encoded frame stores only its change against the
// previous reconstruction and small corrections are dropped by the
// quantizer dead zone, an error introduced in an early frame persists
// through the rest of the stream: exactly the inter-frame error
// propagation the paper uses to explain FFmpeg's phase sensitivity
// (§5.1.1).
//
// The filter chain order is an input parameter. Running edge detection
// before or after the deflate (erosion) filter changes the output
// drastically (paper Fig. 7) and changes the control-flow signature, which
// is what OPPROX's decision tree learns to predict (§3.4).
//
// Approximable blocks (paper Table 1: loop perforation, memoization):
//
//	edge    — rate-parameterized loop perforation over rows of the
//	          edge-detection convolution; skipped rows reuse the previous
//	          frame's filtered row.
//	deflate — memoization over frames: the filter output is recomputed
//	          every level+1-th frame and the cached output stands in for
//	          the frames in between.
//	encode  — rate-parameterized loop perforation over rows of the delta
//	          encoder; skipped rows reuse the previous reconstruction's row
//	          unchanged.
package vidpipe

import (
	"fmt"
	"math"
	"math/rand"

	"opprox/internal/approx"
	"opprox/internal/apps"
	"opprox/internal/qos"
	"opprox/internal/trace"
)

// Block indices in the order reported by Blocks.
const (
	BlockEdge = iota
	BlockDeflate
	BlockEncode
)

// Frame geometry: small enough to keep training runs fast, large enough
// for the filters to be meaningful.
const (
	frameW = 48
	frameH = 32

	// PSNRCap is the PSNR (dB) treated as "no degradation" when the metric
	// is converted to the optimizer's uniform degradation scale.
	PSNRCap = 50.0

	costConv   = 9 // 3×3 convolution per pixel
	costErode  = 5
	costEncode = 3
	costRest   = 17
)

// App is the video-pipeline benchmark.
type App struct{}

// New returns the vidpipe benchmark application.
func New() *App { return &App{} }

// Name implements apps.App.
func (*App) Name() string { return "vidpipe" }

// Blocks implements apps.App.
func (*App) Blocks() []approx.Block {
	return []approx.Block{
		{Name: "edge", Technique: approx.Perforation, MaxLevel: 5},
		{Name: "deflate", Technique: approx.Memoization, MaxLevel: 5},
		{Name: "encode", Technique: approx.Perforation, MaxLevel: 3},
	}
}

// Params implements apps.App. The paper's FFmpeg inputs are frames per
// second, video duration, bitrate, and the filter chain.
func (*App) Params() []apps.ParamSpec {
	return []apps.ParamSpec{
		{Name: "fps", Values: []float64{12, 24}, Default: 24},
		{Name: "duration", Values: []float64{2, 4}, Default: 3},
		{Name: "bitrate", Values: []float64{2, 6}, Default: 4},
		// filterorder 0: deflate → edge; 1: edge → deflate.
		{Name: "filterorder", Values: []float64{0, 1}, Default: 0},
	}
}

// QoS implements apps.App. The natural FFmpeg metric is PSNR (higher is
// better); it is converted onto the uniform degradation scale as
// PSNRCap - psnr so the optimizer can treat every app identically.
func (*App) QoS(exact, approximate []float64) (float64, error) {
	p, err := qos.PSNR(exact, approximate, 255)
	if err != nil {
		return 0, err
	}
	return qos.PSNRToDegradation(p, PSNRCap), nil
}

// PSNR reports the raw peak signal-to-noise ratio between two outputs —
// the metric the paper's FFmpeg figures use directly.
func (*App) PSNR(exact, approximate []float64) (float64, error) {
	return qos.PSNR(exact, approximate, 255)
}

type frame []float64 // frameH*frameW, row-major, 0..255

func at(f frame, y, x int) float64 { return f[y*frameW+x] }

// synthFrame renders frame t of a clip whose motion settles over time: a
// bright blob swings across a static textured background with an amplitude
// that decays through the clip (an opening pan that comes to rest — the
// common structure of surveillance and interview footage). Early frames
// carry most of the motion, so they are both the hardest to encode and the
// most damaged by temporal-reuse approximation; late frames are nearly
// static.
func synthFrame(t, frames int, texture []float64) frame {
	f := make(frame, frameH*frameW)
	decay := math.Exp(-7 * float64(t) / float64(frames))
	cx := float64(frameW)/2 + float64(frameW)/2.2*decay*math.Sin(float64(t)*0.9)
	cy := float64(frameH)/2 + float64(frameH)/2.5*decay*math.Cos(float64(t)*0.7)
	for y := 0; y < frameH; y++ {
		for x := 0; x < frameW; x++ {
			dx, dy := float64(x)-cx, float64(y)-cy
			blob := 180 * math.Exp(-(dx*dx+dy*dy)/30)
			grad := 40 * float64(x) / frameW
			v := blob + grad + texture[y*frameW+x]
			if v > 255 {
				v = 255
			}
			f[y*frameW+x] = v
		}
	}
	return f
}

// edgeFilter runs a 3×3 Sobel-magnitude edge detector with row
// perforation into out, which holds the previous frame's filtered output
// and is overwritten in place (nil on the first frame: it starts as a
// copy of src). A skipped row keeps the previous frame's filtered row
// (temporal reuse — consecutive frames are similar, so the error is small
// but systematic), or passes through unfiltered on the first frame.
func edgeFilter(out, src frame, level, offset int, rec *trace.Recorder) frame {
	if out == nil {
		out = append(frame(nil), src...)
	}
	// Nonzero levels start at a 2/7 skip rate and climb to 6/7: the first
	// knob notch is a real approximation, not a rounding error.
	if level > 0 {
		level++
	}
	rows := approx.PerforateFraction(frameH, level, 6, offset, func(y int) {
		if y == 0 || y == frameH-1 {
			return
		}
		for x := 1; x < frameW-1; x++ {
			gx := at(src, y-1, x+1) + 2*at(src, y, x+1) + at(src, y+1, x+1) -
				at(src, y-1, x-1) - 2*at(src, y, x-1) - at(src, y+1, x-1)
			gy := at(src, y+1, x-1) + 2*at(src, y+1, x) + at(src, y+1, x+1) -
				at(src, y-1, x-1) - 2*at(src, y-1, x) - at(src, y-1, x+1)
			v := math.Sqrt(gx*gx+gy*gy) / 4
			if v > 255 {
				v = 255
			}
			out[y*frameW+x] = v
		}
	})
	rec.Call("edge", uint64(rows*frameW*costConv))
	return out
}

// deflateFilter is a 3×1 horizontal erosion (min filter) memoized across
// frames: the filter output is recomputed every level+1 frames and the
// cached previous output stands in for the frames in between — cheap when
// the content is static, wrong when it moves. out holds the previous
// frame's output (nil on the first frame) and is overwritten in place.
func deflateFilter(out, src frame, level, frameIdx int, rec *trace.Recorder) frame {
	period := level + 1
	if level > 0 && frameIdx%period != 0 && out != nil {
		rec.Call("deflate", uint64(frameH*frameW)) // priced as the cache copy the pipeline models
		return out
	}
	if out == nil {
		out = make(frame, len(src))
	}
	for y := 0; y < frameH; y++ {
		for x := 0; x < frameW; x++ {
			v := at(src, y, x)
			if x > 0 && at(src, y, x-1) < v {
				v = at(src, y, x-1)
			}
			if x < frameW-1 && at(src, y, x+1) < v {
				v = at(src, y, x+1)
			}
			out[y*frameW+x] = v
		}
	}
	rec.Call("deflate", uint64(frameH*frameW*costErode))
	return out
}

// state is one vidpipe run between frames. Every random draw happens in
// Start (the background texture), so a clone needs no random stream.
// The two filter outputs are per-state buffers each frame overwrites in
// place — only the same frame and the next one read them — so a clone
// copies them; no other frame is written after the iteration that made
// it, so clones share the raw frames and the reconstructions.
type state struct {
	frames      int
	edgeFirst   bool
	raw         []frame // every input frame, rendered once in Start
	qstep       float64
	deadzone    float64
	coeffBudget int

	edgeOut, deflateOut frame // the last frame's filter outputs; nil before the first
	prevRecon           frame
	recons              []frame // one reconstruction per finished frame
	rec                 trace.Recorder
}

// Start implements apps.App: the clip's texture and the encoder's rate
// control.
func (a *App) Start(p apps.Params) (apps.State, error) {
	pv := p.Vector(a.Params())
	fps, duration, bitrate := pv[0], pv[1], pv[2]
	frames := int(fps * duration)
	if frames < 2 || bitrate <= 0 {
		return nil, fmt.Errorf("vidpipe: invalid parameters fps=%g duration=%g bitrate=%g", fps, duration, bitrate)
	}
	rng := rand.New(rand.NewSource(apps.Seed(a.Name(), p)))
	// Static background texture: fixed per input, so frame-to-frame deltas
	// come from motion, not from churning noise.
	texture := make([]float64, frameH*frameW)
	for i := range texture {
		texture[i] = rng.Float64() * 18
	}
	raw := make([]frame, frames)
	for t := range raw {
		raw[t] = synthFrame(t, frames, texture)
	}
	// Quantizer: higher bitrate → finer base step → smaller dead zone.
	qstep := 16.0 / bitrate
	return &state{
		frames:    frames,
		edgeFirst: pv[3] >= 0.5,
		raw:       raw,
		qstep:     qstep,
		deadzone:  qstep * 0.9,
		// Rate control: each frame may spend at most coeffBudget nonzero
		// quantized coefficients (that is what "bitrate" buys). A
		// corrupted reference frame makes every subsequent delta large,
		// so later frames exhaust their budget repairing old damage
		// instead of encoding their own content — early-frame errors
		// therefore cost PSNR across the rest of the stream (paper
		// §5.1.1: "any error introduced in the first few frames
		// propagated throughout the remaining frames").
		coeffBudget: int(float64(frameH*frameW) * 0.04 * (bitrate / 4)),
		prevRecon:   make(frame, frameH*frameW), // reference frame starts black
		recons:      make([]frame, 0, frames),
	}, nil
}

// Step implements apps.State: one frame through the filter chain and the
// encoder.
func (s *state) Step(sched approx.Schedule, baselineIters int) bool {
	t := s.rec.Iterations()
	if t >= s.frames {
		return false
	}
	rec := &s.rec
	rec.BeginIteration()
	levels := sched.LevelsAt(approx.PhaseOf(t, baselineIters, sched.Phases))

	raw := s.raw[t]

	// Filter chain order is input-dependent (paper Fig. 7 / Fig. 8).
	var filtered frame
	if s.edgeFirst {
		s.edgeOut = edgeFilter(s.edgeOut, raw, levels[BlockEdge], t, rec)
		s.deflateOut = deflateFilter(s.deflateOut, s.edgeOut, levels[BlockDeflate], t, rec)
		filtered = s.deflateOut
	} else {
		s.deflateOut = deflateFilter(s.deflateOut, raw, levels[BlockDeflate], t, rec)
		s.edgeOut = edgeFilter(s.edgeOut, s.deflateOut, levels[BlockEdge], t, rec)
		filtered = s.edgeOut
	}

	// AB: delta encoder with dead-zone quantization and a hard
	// per-frame coefficient budget (perforation over rows; skipped
	// rows keep the previous reconstruction's content, i.e. their
	// delta is silently dropped). Once the budget is spent, remaining
	// deltas are dropped and must wait for a later frame's budget.
	prevRecon, qstep, deadzone := s.prevRecon, s.qstep, s.deadzone
	recon := make(frame, frameH*frameW)
	copy(recon, prevRecon)
	coeffsLeft := s.coeffBudget
	encLevel := levels[BlockEncode]
	if encLevel > 0 {
		encLevel++
	}
	rows := approx.PerforateFraction(frameH, encLevel, 4, t, func(y int) {
		for x := 0; x < frameW; x++ {
			idx := y*frameW + x
			delta := filtered[idx] - prevRecon[idx]
			var qd float64
			if math.Abs(delta) >= deadzone && coeffsLeft > 0 {
				qd = math.Round(delta/qstep) * qstep
				coeffsLeft--
			}
			recon[idx] = prevRecon[idx] + qd
		}
	})
	rec.Call("encode", uint64(rows*frameW*costEncode))
	// Demux, decode, color conversion, and mux: exact per-frame work
	// the pipeline always pays.
	rec.Overhead(uint64(frameH * frameW * costRest))

	s.prevRecon = recon
	s.recons = append(s.recons, recon)
	return true
}

// Clone implements apps.State. The capped recons slice makes the clone's
// first append copy the frame list instead of writing into the
// original's spare capacity; the filter outputs are copied because the
// next frame overwrites them.
func (s *state) Clone() apps.State {
	c := *s
	c.edgeOut = append(frame(nil), s.edgeOut...)
	c.deflateOut = append(frame(nil), s.deflateOut...)
	c.recons = s.recons[:len(s.recons):len(s.recons)]
	c.rec = s.rec.Clone()
	return &c
}

// Result implements apps.State: every reconstructed frame, in order.
func (s *state) Result() apps.Result {
	out := make([]float64, 0, len(s.recons)*frameH*frameW)
	for _, f := range s.recons {
		out = append(out, f...)
	}
	return apps.Result{
		Output:     out,
		Work:       s.rec.TotalWork(),
		OuterIters: s.rec.Iterations(),
		CtxSig:     s.rec.ContextSignature(),
	}
}

var _ apps.App = (*App)(nil)
