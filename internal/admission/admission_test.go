package admission

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"
)

// fakeClock is a manually advanced clock for deterministic limiter
// tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func TestLimiterClientBucket(t *testing.T) {
	clk := newFakeClock()
	l := NewLimiter(Options{ClientRate: 1, ClientBurst: 2, Now: clk.Now})

	for i := 0; i < 2; i++ {
		if d := l.Allow("a"); !d.OK {
			t.Fatalf("burst request %d rejected: %+v", i, d)
		}
	}
	d := l.Allow("a")
	if d.OK {
		t.Fatal("third request within burst admitted")
	}
	if d.Reason != ReasonClientRate {
		t.Fatalf("reason = %q, want %q", d.Reason, ReasonClientRate)
	}
	if d.RetryAfter <= 0 || d.RetryAfter > time.Second {
		t.Fatalf("RetryAfter = %v, want (0, 1s]", d.RetryAfter)
	}

	// An unrelated client has its own bucket.
	if d := l.Allow("b"); !d.OK {
		t.Fatalf("independent client rejected: %+v", d)
	}

	// One token refills after one second at rate 1.
	clk.Advance(time.Second)
	if d := l.Allow("a"); !d.OK {
		t.Fatalf("request after refill rejected: %+v", d)
	}
	if d := l.Allow("a"); d.OK {
		t.Fatal("second request after single-token refill admitted")
	}

	// Refill clamps at burst: a long idle period doesn't bank tokens.
	clk.Advance(time.Hour)
	for i := 0; i < 2; i++ {
		if d := l.Allow("a"); !d.OK {
			t.Fatalf("post-idle burst request %d rejected: %+v", i, d)
		}
	}
	if d := l.Allow("a"); d.OK {
		t.Fatal("idle period banked more than burst tokens")
	}
}

func TestLimiterGlobalBucket(t *testing.T) {
	clk := newFakeClock()
	l := NewLimiter(Options{GlobalRate: 1, GlobalBurst: 3, Now: clk.Now})

	// Distinct clients all drain the one global bucket.
	for i := 0; i < 3; i++ {
		if d := l.Allow(fmt.Sprintf("c%d", i)); !d.OK {
			t.Fatalf("global burst request %d rejected: %+v", i, d)
		}
	}
	d := l.Allow("c9")
	if d.OK || d.Reason != ReasonGlobalRate {
		t.Fatalf("over-global decision = %+v, want global_rate rejection", d)
	}
	clk.Advance(time.Second)
	if d := l.Allow("c9"); !d.OK {
		t.Fatalf("request after global refill rejected: %+v", d)
	}
}

func TestLimiterGlobalRejectionKeepsClientToken(t *testing.T) {
	clk := newFakeClock()
	l := NewLimiter(Options{
		ClientRate: 1, ClientBurst: 1,
		GlobalRate: 1, GlobalBurst: 1,
		Now: clk.Now,
	})
	if d := l.Allow("a"); !d.OK {
		t.Fatalf("first request rejected: %+v", d)
	}
	// Global bucket is empty; b's rejection must not burn b's token.
	if d := l.Allow("b"); d.OK || d.Reason != ReasonGlobalRate {
		t.Fatalf("decision = %+v, want global_rate rejection", d)
	}
	clk.Advance(time.Second)
	if d := l.Allow("b"); !d.OK {
		t.Fatalf("b rejected after global refill (token was burned): %+v", d)
	}
}

func TestLimiterFailureLockout(t *testing.T) {
	clk := newFakeClock()
	l := NewLimiter(Options{
		FailureLimit:  3,
		FailureWindow: 10 * time.Second,
		Lockout:       30 * time.Second,
		Now:           clk.Now,
	})

	// Below the limit: still admitted.
	l.NoteFailure("a")
	l.NoteFailure("a")
	if d := l.Allow("a"); !d.OK {
		t.Fatalf("client below failure limit rejected: %+v", d)
	}
	l.NoteFailure("a")
	d := l.Allow("a")
	if d.OK || d.Reason != ReasonLockedOut {
		t.Fatalf("decision = %+v, want locked_out rejection", d)
	}
	if d.RetryAfter <= 0 || d.RetryAfter > 30*time.Second {
		t.Fatalf("RetryAfter = %v, want (0, 30s]", d.RetryAfter)
	}
	if locked, left := l.LockedOut("a"); !locked || left <= 0 {
		t.Fatalf("LockedOut = %v, %v, want locked with time left", locked, left)
	}
	// Other clients are unaffected.
	if locked, _ := l.LockedOut("b"); locked {
		t.Fatal("unrelated client reported locked out")
	}
	if d := l.Allow("b"); !d.OK {
		t.Fatalf("unrelated client rejected: %+v", d)
	}

	// The lockout expires.
	clk.Advance(31 * time.Second)
	if locked, _ := l.LockedOut("a"); locked {
		t.Fatal("client still locked out after expiry")
	}
	if d := l.Allow("a"); !d.OK {
		t.Fatalf("client rejected after lockout expiry: %+v", d)
	}
}

func TestLimiterFailureWindowSlides(t *testing.T) {
	clk := newFakeClock()
	l := NewLimiter(Options{
		FailureLimit:  3,
		FailureWindow: 10 * time.Second,
		Lockout:       30 * time.Second,
		Now:           clk.Now,
	})
	// Three failures spread wider than the window never lock.
	l.NoteFailure("a")
	clk.Advance(11 * time.Second)
	l.NoteFailure("a")
	clk.Advance(11 * time.Second)
	l.NoteFailure("a")
	if locked, _ := l.LockedOut("a"); locked {
		t.Fatal("failures outside the window locked the client")
	}
	// Three inside one window do.
	l.NoteFailure("a")
	l.NoteFailure("a")
	if locked, _ := l.LockedOut("a"); !locked {
		t.Fatal("three failures inside the window did not lock the client")
	}
}

func TestLimiterClientEviction(t *testing.T) {
	clk := newFakeClock()
	l := NewLimiter(Options{ClientRate: 1, ClientBurst: 1, MaxClients: 2, Now: clk.Now})
	l.Allow("a")
	l.Allow("b")
	l.Allow("a") // refresh a: b becomes the eviction candidate
	l.Allow("c") // evicts b
	if n := l.Clients(); n != 2 {
		t.Fatalf("Clients() = %d, want 2", n)
	}
	// a was retained: its drained bucket survived the churn. b was
	// evicted: it returns as a fresh client with a full bucket (which
	// in turn evicts the LRU entry again — the bound holds).
	if d := l.Allow("a"); d.OK {
		t.Fatal("retained client's bucket was reset by eviction churn")
	}
	if d := l.Allow("b"); !d.OK {
		t.Fatalf("evicted client did not reset: %+v", d)
	}
	if n := l.Clients(); n != 2 {
		t.Fatalf("Clients() after re-adding = %d, want 2", n)
	}
}

func TestLimiterZeroOptionsAdmitsEverything(t *testing.T) {
	l := NewLimiter(Options{Now: newFakeClock().Now})
	for i := 0; i < 100; i++ {
		if d := l.Allow("a"); !d.OK {
			t.Fatalf("zero-options limiter rejected request %d: %+v", i, d)
		}
	}
	l.NoteFailure("a") // no-op with FailureLimit 0
	if locked, _ := l.LockedOut("a"); locked {
		t.Fatal("zero-options limiter locked a client out")
	}
}

func TestLimiterConcurrent(t *testing.T) {
	l := NewLimiter(Options{
		ClientRate: 1000, ClientBurst: 50,
		GlobalRate: 5000, GlobalBurst: 200,
		FailureLimit: 5, FailureWindow: time.Second, Lockout: time.Second,
		MaxClients: 8,
	})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			key := fmt.Sprintf("c%d", g%3)
			for i := 0; i < 500; i++ {
				l.Allow(key)
				if i%50 == 0 {
					l.NoteFailure(key)
					l.LockedOut(key)
				}
			}
		}(g)
	}
	wg.Wait()
	if n := l.Clients(); n > 8 {
		t.Fatalf("Clients() = %d, want <= MaxClients 8", n)
	}
}

func TestGate(t *testing.T) {
	g := NewGate(2)
	if g.Cap() != 2 {
		t.Fatalf("Cap() = %d, want 2", g.Cap())
	}
	if err := g.Acquire(context.Background()); err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	if err := g.Acquire(context.Background()); err != nil {
		t.Fatalf("Acquire with a free slot: %v", err)
	}
	if g.InFlight() != 2 {
		t.Fatalf("InFlight() = %d, want 2", g.InFlight())
	}
	canceled, cancelNow := context.WithCancel(context.Background())
	cancelNow()
	if err := g.Acquire(canceled); err == nil {
		t.Fatal("Acquire past capacity succeeded")
	}

	// A full gate blocks Acquire until the deadline, counting the
	// waiter, and returns ctx.Err() without a slot.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- g.Acquire(ctx) }()
	deadline := time.Now().Add(time.Second)
	for g.Waiting() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if g.Waiting() != 1 {
		t.Fatalf("Waiting() = %d, want 1", g.Waiting())
	}
	if err := <-done; err != context.DeadlineExceeded {
		t.Fatalf("Acquire on full gate = %v, want DeadlineExceeded", err)
	}
	if g.Waiting() != 0 {
		t.Fatalf("Waiting() = %d after timeout, want 0", g.Waiting())
	}
	if g.InFlight() != 2 {
		t.Fatalf("InFlight() = %d after failed Acquire, want 2", g.InFlight())
	}

	// Releasing frees a slot for a blocked waiter.
	go func() { done <- g.Acquire(context.Background()) }()
	g.Release()
	if err := <-done; err != nil {
		t.Fatalf("Acquire after Release: %v", err)
	}
	g.Release()
	g.Release()
	if g.InFlight() != 0 {
		t.Fatalf("InFlight() = %d after draining, want 0", g.InFlight())
	}
}

func TestGateConcurrent(t *testing.T) {
	const capacity = 4
	g := NewGate(capacity)
	var wg sync.WaitGroup
	var peak, cur int64
	var mu sync.Mutex
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := g.Acquire(context.Background()); err != nil {
				t.Errorf("Acquire: %v", err)
				return
			}
			mu.Lock()
			cur++
			if cur > peak {
				peak = cur
			}
			mu.Unlock()
			time.Sleep(time.Millisecond)
			mu.Lock()
			cur--
			mu.Unlock()
			g.Release()
		}()
	}
	wg.Wait()
	if peak > capacity {
		t.Fatalf("observed %d concurrent holders, cap %d", peak, capacity)
	}
	if g.InFlight() != 0 || g.Waiting() != 0 {
		t.Fatalf("gate not drained: inflight %d waiting %d", g.InFlight(), g.Waiting())
	}
}
