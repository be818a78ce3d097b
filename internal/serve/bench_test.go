package serve

import (
	"context"
	"testing"

	"opprox/internal/apps"
)

// benchServer builds a server over a trained pso model, optionally with
// the plan cache disabled so every dispatch takes the full path.
func benchServer(b *testing.B, planCacheCap int) (*Server, *DispatchRequest) {
	b.Helper()
	store := newFakeStore()
	store.files["pso.json"] = trainedModelJSON(b)
	s := New(Options{Store: store, Registry: RegistryOptions{RetryBase: 0}, PlanCacheCap: planCacheCap})
	dreq := planRequest("pso.json", "pso", 10, apps.Params{"swarm": 16, "dim": 4})
	if _, degraded, err := s.dispatchBody(context.Background(), dreq); err != nil || degraded {
		b.Fatalf("warmup: degraded=%v err=%v", degraded, err)
	}
	return s, dreq
}

// BenchmarkDispatchPlanCacheHit is the steady-state serving hot path: a
// repeat dispatch answered from the plan cache. The acceptance bar is
// zero allocations and >= 5x faster than BenchmarkDispatchCold.
func BenchmarkDispatchPlanCacheHit(b *testing.B) {
	s, dreq := benchServer(b, 0)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body, _, err := s.dispatchBody(ctx, dreq)
		if err != nil || body == nil {
			b.Fatal("hit path failed")
		}
	}
}

// BenchmarkDispatchCold is the uncached dispatch: full schedule
// optimization, diagnosis, recording and serialization on every request
// (plan cache disabled).
func BenchmarkDispatchCold(b *testing.B) {
	s, dreq := benchServer(b, -1)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body, _, err := s.dispatchBody(ctx, dreq)
		if err != nil || body == nil {
			b.Fatal("cold path failed")
		}
	}
}

// BenchmarkDispatchConcurrentCold is the concurrent uncached burst:
// parallel identical dispatches with the plan cache disabled, each
// computing its own plan on its own goroutine.
func BenchmarkDispatchConcurrentCold(b *testing.B) {
	s, dreq := benchServer(b, -1)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			body, _, err := s.dispatchBody(ctx, dreq)
			if err != nil || body == nil {
				b.Error("concurrent cold path failed")
				return
			}
		}
	})
}
