package qos

import (
	"fmt"
	"sync"
)

// This file is the control side of QoS: where the metrics above score
// how much accuracy an approximate output gave up, the Ladder decides
// how much accuracy the *serving layer* should give up as a function
// of load (Capri-style: output quality as a control variable). The
// serving layer feeds it a pressure scalar in [0, ~1+] derived from
// the admission gate (in-flight and queue occupancy, timeout rate) and
// reads back a degradation step:
//
//	step 0  full service   — compute fresh plans
//	step 1  coarse plans   — serve cache hits; compute misses at a
//	                         budget quantized onto a coarse grid so
//	                         distinct budgets share plans
//	step 2  exact fallback — serve cache hits; answer misses with the
//	                         deterministic all-accurate schedule
//	step 3  reject         — serve cache hits; 429 everything else
//
// Escalation is immediate (overload must be answered now); recovery is
// hysteretic: pressure must stay below the step's exit threshold —
// which sits strictly below its entry threshold — for LadderDwell
// consecutive updates before the ladder steps down one rung. The gap
// plus the dwell keeps the controller from flapping when load hovers
// at a boundary.

// LadderSteps is the number of degraded steps (the ladder runs 0..LadderSteps).
const LadderSteps = 3

// LadderDwell is the number of consecutive below-exit updates required
// to step down one rung.
const LadderDwell = 3

// ladderEnter/ladderExit are the pressure thresholds for entering and
// leaving each degraded step (index i governs step i+1). Enter is
// non-decreasing and each Exit sits strictly below its Enter: the
// hysteresis gap.
var (
	ladderEnter = [LadderSteps]float64{0.50, 0.75, 0.90}
	ladderExit  = [LadderSteps]float64{0.35, 0.60, 0.80}
)

// Ladder is a concurrency-safe hysteresis controller over the
// degradation steps. It is clock-free: time enters only through the
// cadence of Update calls, so tests drive it deterministically.
type Ladder struct {
	mu     sync.Mutex
	step   int
	calm   int // consecutive updates below the current step's exit threshold
	forced int // operator override; -1 when inactive
}

// NewLadder builds a Ladder at step 0 under load control.
func NewLadder() *Ladder { return &Ladder{forced: -1} }

// Update feeds one pressure observation and returns the step to serve
// at. Escalation applies immediately and can jump multiple rungs in
// one update; de-escalation moves one rung after dwell consecutive
// below-exit observations. A forced step (Force) bypasses control
// entirely.
func (l *Ladder) Update(pressure float64) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.forced >= 0 {
		return l.forced
	}
	if up := l.targetStep(pressure); up > l.step {
		l.step = up
		l.calm = 0
		return l.step
	}
	if l.step > 0 && pressure < ladderExit[l.step-1] {
		l.calm++
		if l.calm >= LadderDwell {
			l.step--
			l.calm = 0
		}
	} else {
		l.calm = 0
	}
	return l.step
}

// targetStep is the highest step whose entry threshold pressure meets.
func (l *Ladder) targetStep(pressure float64) int {
	step := 0
	for i := 0; i < LadderSteps; i++ {
		if pressure >= ladderEnter[i] {
			step = i + 1
		}
	}
	return step
}

// Step reports the current step without feeding an observation.
func (l *Ladder) Step() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.forced >= 0 {
		return l.forced
	}
	return l.step
}

// Force pins the ladder to a step (0..LadderSteps) regardless of
// pressure — the operator override, and the hook the overload smoke
// drill uses to walk the rungs deterministically. A negative step
// clears the override and resumes control from the pinned step.
func (l *Ladder) Force(step int) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if step > LadderSteps {
		return fmt.Errorf("qos: ladder step %d out of range [0, %d]", step, LadderSteps)
	}
	if step < 0 {
		if l.forced >= 0 {
			// Resume control where the override left it; hysteresis
			// walks it back down as pressure allows.
			l.step = l.forced
			l.calm = 0
		}
		l.forced = -1
		return nil
	}
	l.forced = step
	return nil
}

// Forced reports the active override, or -1 when the controller is in
// charge.
func (l *Ladder) Forced() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.forced
}

// RateWindow tracks the hit fraction over the last Size boolean
// outcomes — the serving layer records one outcome per dispatch
// (timed out or not) and reads back the timeout fraction as a
// pressure component. Rate reports 0 until Min outcomes accumulate,
// so a single slow request on an idle server cannot escalate the
// ladder.
type RateWindow struct {
	mu   sync.Mutex
	buf  []bool
	idx  int
	n    int
	hits int
	min  int
}

// DefaultRateWindowSize and DefaultRateWindowMin shape the serving
// layer's timeout window: 64 recent outcomes, at least 8 before the
// fraction is trusted.
const (
	DefaultRateWindowSize = 64
	DefaultRateWindowMin  = 8
)

// NewRateWindow builds a window over the last size outcomes requiring
// min samples (size < 1 and min < 1 use the defaults).
func NewRateWindow(size, min int) *RateWindow {
	if size < 1 {
		size = DefaultRateWindowSize
	}
	if min < 1 {
		min = DefaultRateWindowMin
	}
	if min > size {
		min = size
	}
	return &RateWindow{buf: make([]bool, size), min: min}
}

// Observe records one outcome.
func (w *RateWindow) Observe(hit bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.n == len(w.buf) {
		if w.buf[w.idx] {
			w.hits--
		}
	} else {
		w.n++
	}
	w.buf[w.idx] = hit
	if hit {
		w.hits++
	}
	w.idx = (w.idx + 1) % len(w.buf)
}

// Rate reports the hit fraction over the window, or 0 with fewer than
// min samples.
func (w *RateWindow) Rate() float64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.n < w.min {
		return 0
	}
	return float64(w.hits) / float64(w.n)
}
