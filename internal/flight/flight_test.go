package flight

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

var bg = context.Background()

func TestDoComputesOnce(t *testing.T) {
	var g Group[int]
	var calls atomic.Int32
	fn := func() (int, error) { calls.Add(1); return 42, nil }

	v, err, hit := g.Do(bg, "k", fn)
	if v != 42 || err != nil || hit {
		t.Fatalf("first Do = (%d, %v, hit=%v), want (42, nil, false)", v, err, hit)
	}
	v, err, hit = g.Do(bg, "k", fn)
	if v != 42 || err != nil || !hit {
		t.Fatalf("second Do = (%d, %v, hit=%v), want (42, nil, true)", v, err, hit)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("fn ran %d times, want 1", n)
	}
}

func TestDoConcurrentSharesOneFlight(t *testing.T) {
	var g Group[int]
	var calls atomic.Int32
	const workers = 32
	var wg sync.WaitGroup
	results := make([]int, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err, _ := g.Do(bg, "k", func() (int, error) {
				calls.Add(1)
				return 7, nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i] = v
		}(i)
	}
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Fatalf("fn ran %d times under contention, want 1", n)
	}
	for i, v := range results {
		if v != 7 {
			t.Fatalf("worker %d got %d, want 7", i, v)
		}
	}
}

func TestErrorsStayCachedUntilForget(t *testing.T) {
	var g Group[int]
	boom := errors.New("boom")
	calls := 0
	fn := func() (int, error) { calls++; return 0, boom }

	if _, err, _ := g.Do(bg, "k", fn); !errors.Is(err, boom) {
		t.Fatalf("got %v, want boom", err)
	}
	if _, err, hit := g.Do(bg, "k", fn); !errors.Is(err, boom) || !hit {
		t.Fatalf("cached error lost: (%v, hit=%v)", err, hit)
	}
	if calls != 1 {
		t.Fatalf("fn ran %d times, want 1 (errors cache)", calls)
	}
	g.Forget("k")
	if _, err, hit := g.Do(bg, "k", fn); !errors.Is(err, boom) || hit {
		t.Fatalf("after Forget: (%v, hit=%v), want fresh boom", err, hit)
	}
	if calls != 2 {
		t.Fatalf("fn ran %d times after Forget, want 2", calls)
	}
}

func TestPeekSemantics(t *testing.T) {
	var g Group[int]
	// No slot.
	if _, ok := g.Peek("k"); ok {
		t.Fatal("Peek invented a value")
	}
	// In-flight computation: Peek must not block or observe a partial
	// result.
	started := make(chan struct{})
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		g.Do(bg, "k", func() (int, error) {
			close(started)
			<-release
			return 42, nil
		})
	}()
	<-started
	if _, ok := g.Peek("k"); ok {
		t.Fatal("Peek returned an in-flight slot")
	}
	close(release)
	<-done
	if v, ok := g.Peek("k"); !ok || v != 42 {
		t.Fatalf("Peek after completion = (%d, %v), want (42, true)", v, ok)
	}
	// Cached errors stay invisible to Peek.
	g.Do(bg, "bad", func() (int, error) { return 0, errors.New("boom") })
	if _, ok := g.Peek("bad"); ok {
		t.Fatal("Peek resurrected a cached error")
	}
	// Forget removes the slot from Peek's view.
	g.Forget("k")
	if _, ok := g.Peek("k"); ok {
		t.Fatal("Peek survived Forget")
	}
}

// TestConcurrentForgetPeekDo hammers the full surface concurrently:
// Forget and callers abandoning on a done context racing readers
// (Do+Peek) must never yield a stale or partial value. The race detector
// plus the value invariant (only generations ever installed) are the
// assertions.
func TestConcurrentForgetPeekDo(t *testing.T) {
	var g Group[int]
	done, cancel := context.WithCancel(bg)
	cancel()
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				gen := w*1000 + i
				switch i % 4 {
				case 0:
					v, err, _ := g.Do(bg, "k", func() (int, error) { return gen, nil })
					if err != nil || v < 0 {
						t.Errorf("Do = (%d, %v)", v, err)
						return
					}
				case 1:
					if v, ok := g.Peek("k"); ok && v < 0 {
						t.Errorf("Peek saw invalid value %d", v)
						return
					}
				case 2:
					v, err, _ := g.Do(done, "k", func() (int, error) { return gen, nil })
					if err == nil && v < 0 {
						t.Errorf("abandoning Do = (%d, %v)", v, err)
						return
					}
				case 3:
					g.Forget("k")
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestKeysAndLen(t *testing.T) {
	var g Group[int]
	if g.Len() != 0 || len(g.Keys()) != 0 {
		t.Fatal("zero group not empty")
	}
	g.Do(bg, "a", func() (int, error) { return 1, nil })
	g.Do(bg, "b", func() (int, error) { return 2, nil })
	if g.Len() != 2 {
		t.Fatalf("Len = %d, want 2", g.Len())
	}
	seen := map[string]bool{}
	for _, k := range g.Keys() {
		seen[k] = true
	}
	if !seen["a"] || !seen["b"] {
		t.Fatalf("Keys = %v, want a and b", g.Keys())
	}
}

// TestDoWaiterAbandonsOnItsContext: a caller whose ctx ends stops
// waiting, but the flight it joined keeps running and is delivered to
// the callers still waiting and to later ones — fn runs once.
func TestDoWaiterAbandonsOnItsContext(t *testing.T) {
	var g Group[int]
	var calls atomic.Int32
	started := make(chan struct{})
	release := make(chan struct{})
	go g.Do(bg, "k", func() (int, error) {
		calls.Add(1)
		close(started)
		<-release
		return 9, nil
	})
	<-started

	ctx, cancel := context.WithCancel(bg)
	cancel()
	if _, err, hit := g.Do(ctx, "k", func() (int, error) { calls.Add(1); return 0, nil }); !errors.Is(err, context.Canceled) || !hit {
		t.Fatalf("abandoning waiter got (%v, hit=%v), want (context.Canceled, true)", err, hit)
	}
	waiter := make(chan int)
	go func() {
		v, err, _ := g.Do(bg, "k", func() (int, error) { calls.Add(1); return 0, nil })
		if err != nil {
			t.Error(err)
		}
		waiter <- v
	}()
	close(release)
	if v := <-waiter; v != 9 {
		t.Fatalf("waiter got %d, want the flight's 9", v)
	}
	if v, err, hit := g.Do(bg, "k", func() (int, error) { calls.Add(1); return 0, nil }); v != 9 || err != nil || !hit {
		t.Fatalf("later Do = (%d, %v, hit=%v), want (9, nil, true)", v, err, hit)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("fn ran %d times, want 1", n)
	}
	// A completed flight is returned even to a caller whose ctx is done.
	if v, err, _ := g.Do(ctx, "k", nil); v != 9 || err != nil {
		t.Fatalf("done ctx on a completed flight = (%d, %v), want (9, nil)", v, err)
	}
}

// TestDoFirstCallerAbandons: the caller that started the flight is just
// another waiter — its deadline does not end the flight.
func TestDoFirstCallerAbandons(t *testing.T) {
	var g Group[int]
	release := make(chan struct{})
	ctx, cancel := context.WithTimeout(bg, 5*time.Millisecond)
	defer cancel()
	_, err, hit := g.Do(ctx, "k", func() (int, error) { <-release; return 3, nil })
	if !errors.Is(err, context.DeadlineExceeded) || hit {
		t.Fatalf("first caller got (%v, hit=%v), want (DeadlineExceeded, false)", err, hit)
	}
	if _, ok := g.Peek("k"); ok {
		t.Fatal("Peek saw the unfinished flight")
	}
	close(release)
	if v, err, hit := g.Do(bg, "k", func() (int, error) { return 0, nil }); v != 3 || err != nil || !hit {
		t.Fatalf("after release Do = (%d, %v, hit=%v), want (3, nil, true)", v, err, hit)
	}
}

// TestOnlyFlightErrorMakesKeyRetryable is the lifecycle manager's usage:
// fn Forgets its own key when it fails. Callers that abandon on their
// ctx leave the key alone, so a burst of timed-out callers shares one
// flight; a failed flight is delivered to its waiters and the next Do
// starts a fresh one.
func TestOnlyFlightErrorMakesKeyRetryable(t *testing.T) {
	var g Group[int]
	var calls atomic.Int32
	boom := errors.New("boom")
	started := make(chan struct{})
	release := make(chan struct{})
	fn := func() (int, error) {
		if calls.Add(1) == 1 {
			close(started)
			<-release
		}
		g.Forget("k")
		return 0, boom
	}
	// The waiter starts the flight and stays until it completes.
	waiter := make(chan error)
	go func() {
		_, err, _ := g.Do(bg, "k", fn)
		waiter <- err
	}()
	<-started
	for i := 0; i < 16; i++ {
		ctx, cancel := context.WithTimeout(bg, time.Millisecond)
		if _, err, hit := g.Do(ctx, "k", fn); !errors.Is(err, context.DeadlineExceeded) || !hit {
			t.Fatalf("abandoning caller %d got (%v, hit=%v), want to join the flight and time out", i, err, hit)
		}
		cancel()
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("%d flights for 16 abandoning callers, want 1", n)
	}
	close(release)
	if err := <-waiter; !errors.Is(err, boom) {
		t.Fatalf("waiter got %v, want the flight's error", err)
	}
	if _, err, hit := g.Do(bg, "k", fn); !errors.Is(err, boom) || hit {
		t.Fatalf("after the failure Do = (%v, hit=%v), want a fresh flight", err, hit)
	}
	if n := calls.Load(); n != 2 {
		t.Fatalf("fn ran %d times, want 2", n)
	}
}
