package admission

import (
	"context"
	"sync/atomic"
)

// Gate bounds concurrent in-flight computations with a buffered-channel
// semaphore and counts how many callers are queued behind it. The
// serving layer holds a slot for the whole of a dispatch computation,
// which runs on the request's own goroutine: at most Cap computations
// run at once, the rest wait in Acquire until a slot frees or their
// deadline passes, and InFlight/Waiting become the load signals the
// degradation ladder steers by.
type Gate struct {
	sem     chan struct{}
	waiting atomic.Int64
}

// NewGate builds a gate admitting up to capacity concurrent holders
// (minimum 1).
func NewGate(capacity int) *Gate {
	if capacity < 1 {
		capacity = 1
	}
	return &Gate{sem: make(chan struct{}, capacity)}
}

// Acquire takes a slot, blocking until one frees or ctx is done (the
// queue wait is bounded by the request deadline). It returns ctx.Err()
// without a slot on timeout/cancel.
func (g *Gate) Acquire(ctx context.Context) error {
	select {
	case g.sem <- struct{}{}:
		return nil
	default:
	}
	g.waiting.Add(1)
	defer g.waiting.Add(-1)
	select {
	case g.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Release returns a slot taken by Acquire.
func (g *Gate) Release() { <-g.sem }

// InFlight reports current slot holders.
func (g *Gate) InFlight() int { return len(g.sem) }

// Waiting reports callers blocked in Acquire.
func (g *Gate) Waiting() int { return int(g.waiting.Load()) }

// Cap reports the gate's capacity.
func (g *Gate) Cap() int { return cap(g.sem) }
