package qos

import (
	"sync"
	"testing"
)

func TestLadderEscalatesImmediately(t *testing.T) {
	l := NewLadder()
	if got := l.Update(0.1); got != 0 {
		t.Fatalf("idle step = %d, want 0", got)
	}
	if got := l.Update(0.55); got != 1 {
		t.Fatalf("step after 0.55 = %d, want 1", got)
	}
	// A spike jumps multiple rungs in one update.
	if got := l.Update(0.95); got != 3 {
		t.Fatalf("step after 0.95 = %d, want 3", got)
	}
	if got := l.Step(); got != 3 {
		t.Fatalf("Step() = %d, want 3", got)
	}
}

func TestLadderRecoversWithDwell(t *testing.T) {
	l := NewLadder()
	l.Update(0.6) // step 1 (enter 0.50)
	// Below exit (0.35) but not for long enough: still step 1.
	if got := l.Update(0.1); got != 1 {
		t.Fatalf("step after 1 calm update = %d, want 1", got)
	}
	if got := l.Update(0.1); got != 1 {
		t.Fatalf("step after 2 calm updates = %d, want 1", got)
	}
	if got := l.Update(0.1); got != 0 {
		t.Fatalf("step after 3 calm updates = %d, want 0", got)
	}
	// Recovery is one rung at a time: from step 2, three calm updates
	// reach step 1, three more reach 0.
	l.Update(0.8) // step 2 (enter 0.75)
	for i := 0; i < 3; i++ {
		l.Update(0.0)
	}
	if got := l.Step(); got != 1 {
		t.Fatalf("step after first dwell from 2 = %d, want 1", got)
	}
	for i := 0; i < 3; i++ {
		l.Update(0.0)
	}
	if got := l.Step(); got != 0 {
		t.Fatalf("step after second dwell = %d, want 0", got)
	}
}

func TestLadderHysteresisNoFlap(t *testing.T) {
	l := NewLadder()
	l.Update(0.55) // step 1
	// Pressure hovering in the gap (between exit 0.35 and enter 0.50)
	// holds the step forever — no flapping at the boundary.
	for i := 0; i < 50; i++ {
		if got := l.Update(0.40); got != 1 {
			t.Fatalf("update %d in hysteresis gap: step = %d, want 1", i, got)
		}
	}
	// A calm streak interrupted by one in-gap observation restarts the
	// dwell count.
	l.Update(0.1)  // calm 1/3
	l.Update(0.1)  // calm 2/3
	l.Update(0.40) // resets calm
	for i := 1; i < LadderDwell; i++ {
		if got := l.Update(0.1); got != 1 {
			t.Fatalf("step after interrupted streak + %d calm = %d, want 1", i, got)
		}
	}
	if got := l.Update(0.1); got != 0 {
		t.Fatalf("step after full streak = %d, want 0", got)
	}
}

func TestLadderForce(t *testing.T) {
	l := NewLadder()
	if err := l.Force(2); err != nil {
		t.Fatalf("Force(2): %v", err)
	}
	if got := l.Forced(); got != 2 {
		t.Fatalf("Forced() = %d, want 2", got)
	}
	// Pressure is ignored while forced.
	if got := l.Update(0.0); got != 2 {
		t.Fatalf("forced Update(0) = %d, want 2", got)
	}
	if got := l.Update(1.0); got != 2 {
		t.Fatalf("forced Update(1) = %d, want 2", got)
	}
	if err := l.Force(LadderSteps + 1); err == nil {
		t.Fatal("Force past LadderSteps succeeded")
	}
	// Clearing resumes control from the forced step; calm pressure
	// then walks it down.
	if err := l.Force(-1); err != nil {
		t.Fatalf("Force(-1): %v", err)
	}
	if got := l.Forced(); got != -1 {
		t.Fatalf("Forced() after clear = %d, want -1", got)
	}
	if got := l.Step(); got != 2 {
		t.Fatalf("Step() after clear = %d, want 2 (resume where forced)", got)
	}
	for i := 0; i < LadderDwell; i++ {
		l.Update(0.0)
	}
	if got := l.Step(); got != 1 {
		t.Fatalf("Step() after dwell = %d, want 1", got)
	}
}

func TestLadderConcurrent(t *testing.T) {
	l := NewLadder()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				l.Update(float64(g%4) * 0.3)
				l.Step()
				if i%50 == 0 {
					l.Force(g % 2)
					l.Force(-1)
				}
			}
		}(g)
	}
	wg.Wait()
	if s := l.Step(); s < 0 || s > LadderSteps {
		t.Fatalf("step out of range after churn: %d", s)
	}
}

func TestRateWindow(t *testing.T) {
	w := NewRateWindow(8, 4)
	// Below the sample floor the rate is pinned to 0.
	w.Observe(true)
	w.Observe(true)
	w.Observe(true)
	if got := w.Rate(); got != 0 {
		t.Fatalf("Rate() with 3 < min samples = %g, want 0", got)
	}
	w.Observe(true)
	if got := w.Rate(); got != 1 {
		t.Fatalf("Rate() = %g, want 1", got)
	}
	for i := 0; i < 4; i++ {
		w.Observe(false)
	}
	if got := w.Rate(); got != 0.5 {
		t.Fatalf("Rate() = %g, want 0.5", got)
	}
	// The window slides: 8 misses evict every hit.
	for i := 0; i < 4; i++ {
		w.Observe(false)
	}
	if got := w.Rate(); got != 0 {
		t.Fatalf("Rate() after sliding out hits = %g, want 0", got)
	}
}

func TestRateWindowConcurrent(t *testing.T) {
	w := NewRateWindow(64, 8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				w.Observe(i%2 == 0)
				w.Rate()
			}
		}(g)
	}
	wg.Wait()
	if r := w.Rate(); r < 0 || r > 1 {
		t.Fatalf("rate out of range after churn: %g", r)
	}
}
