package apps_test

import (
	"testing"

	"opprox/internal/approx"
	"opprox/internal/apps"
	"opprox/internal/apps/vidpipe"
	"opprox/internal/obs"
)

// TestCheckpointBytesCountSharedOnce builds vidpipe's golden checkpoints
// (start and end) and the three phase boundaries of a 4-phase schedule,
// and checks apps.vidpipe.resume.checkpoint_bytes against the frames
// they hold. All of them share the 96-frame raw table, and each boundary
// shares the finished frames of the boundary it was built from, so the
// counter should read one raw table, the golden run's 96 output frames
// and the boundaries' 72, plus small change — not a raw table per
// checkpoint.
func TestCheckpointBytesCountSharedOnce(t *testing.T) {
	const frames = 96
	const frameBytes = 32 * 48 * 8
	a := vidpipe.New()
	r := apps.NewRunner(a)
	c := obs.Default.Counter("apps.vidpipe.resume.checkpoint_bytes")
	before := c.Value()
	p := apps.Params{"fps": 24, "duration": 4, "bitrate": 4, "filterorder": 0}
	cfg := approx.Config{1, 1, 1}
	for ph := 1; ph < 4; ph++ {
		if _, err := r.Evaluate(p, approx.SinglePhaseSchedule(4, ph, cfg)); err != nil {
			t.Fatal(err)
		}
	}
	got := c.Value() - before
	lo := int64((frames + frames + 72) * frameBytes)
	// Besides the frames: each checkpoint's copies of the two filter
	// outputs it will reuse, frame-slice headers and recorders.
	hi := lo + 5*2*frameBytes + 64<<10
	if got < lo || got > hi {
		t.Fatalf("checkpoint_bytes = %d, want in [%d, %d]", got, lo, hi)
	}
}
