// Package flight provides a minimal generic singleflight cache: the first
// caller for a key computes the value, every other caller — concurrent or
// later — reuses the result. It is the deduplication pattern the parallel
// experiment engine introduced for trained-model and golden-run caches
// (internal/experiments), extracted so the serving layer's lifecycle
// manager (internal/lifecycle) can share it.
//
// Unlike golang.org/x/sync/singleflight, results (including errors) stay
// cached after the flight completes; callers that want failed keys retried
// call Forget.
package flight

import (
	"context"
	"sort"
	"sync"
)

// slot is one cached computation.
type slot[V any] struct {
	done chan struct{} // closed once v/err are final
	v    V
	err  error
}

// Group deduplicates computations by string key. The zero value is ready
// to use. All methods are safe for concurrent use.
type Group[V any] struct {
	mu    sync.Mutex
	slots map[string]*slot[V]
}

// Do returns the cached value for key, computing it with fn on first use.
// fn runs once, on a goroutine of its own; every caller, the one that
// started the flight included, waits until the flight completes or its
// own ctx is done. A caller that gives up gets ctx.Err() and leaves the
// flight running: it still completes, is delivered to the callers still
// waiting and is cached for later ones, so a burst of abandoning callers
// parks one goroutine per key, not one per caller. A completed flight is
// returned even when ctx is already done. The third return reports
// whether the slot already existed before this call (a cache hit):
// errors are cached like values, so a caller that wants failures retried
// must Forget the key — and only after a failure of the flight itself,
// never because its own ctx ended.
func (g *Group[V]) Do(ctx context.Context, key string, fn func() (V, error)) (V, error, bool) {
	g.mu.Lock()
	if g.slots == nil {
		g.slots = map[string]*slot[V]{}
	}
	s, hit := g.slots[key]
	if !hit {
		s = &slot[V]{done: make(chan struct{})}
		g.slots[key] = s
		go func() {
			s.v, s.err = fn()
			close(s.done)
		}()
	}
	g.mu.Unlock()
	select {
	case <-s.done:
	default:
		select {
		case <-s.done:
		case <-ctx.Done():
			var zero V
			return zero, ctx.Err(), hit
		}
	}
	return s.v, s.err, hit
}

// Peek returns the completed, successful value for key without creating
// a slot, blocking on an in-flight computation, or resurrecting a cached
// error. Lifecycle layers use it to consult state that must only exist
// if a load already succeeded.
func (g *Group[V]) Peek(key string) (V, bool) {
	g.mu.Lock()
	s := g.slots[key]
	g.mu.Unlock()
	var zero V
	if s == nil {
		return zero, false
	}
	select {
	case <-s.done:
		if s.err == nil {
			return s.v, true
		}
	default:
	}
	return zero, false
}

// Forget drops key so the next Do recomputes it. Callers already waiting
// on the old flight still receive its result; fn may Forget its own key
// to make its failure retryable.
func (g *Group[V]) Forget(key string) {
	g.mu.Lock()
	delete(g.slots, key)
	g.mu.Unlock()
}

// Keys returns the keys with a slot (completed or in flight), sorted.
func (g *Group[V]) Keys() []string {
	g.mu.Lock()
	keys := make([]string, 0, len(g.slots))
	for k := range g.slots {
		keys = append(keys, k)
	}
	g.mu.Unlock()
	sort.Strings(keys)
	return keys
}

// Len reports the number of slots.
func (g *Group[V]) Len() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.slots)
}
