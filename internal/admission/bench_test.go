package admission

import (
	"context"
	"fmt"
	"testing"
)

// BenchmarkLimiterAllow pins the steady-state admission hot path: an
// established client checked against both buckets. The acceptance bar
// is <= 1 alloc/op; the map-lookup + intrusive-LRU design achieves 0.
func BenchmarkLimiterAllow(b *testing.B) {
	l := NewLimiter(Options{
		ClientRate: 1e9, ClientBurst: 1e9,
		GlobalRate: 1e9, globalBurst: 1e9,
		FailureLimit: 5,
	})
	l.Allow("bench-client")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Allow("bench-client")
	}
}

// BenchmarkLimiterAllowRotating exercises the LRU move path: requests
// rotate over a working set of established clients.
func BenchmarkLimiterAllowRotating(b *testing.B) {
	l := NewLimiter(Options{ClientRate: 1e9, GlobalRate: 1e9})
	keys := make([]string, 16)
	for i := range keys {
		keys[i] = fmt.Sprintf("client-%02d", i)
		l.Allow(keys[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Allow(keys[i&15])
	}
}

// BenchmarkLimiterRejected measures the rejection path (bucket empty):
// overload is exactly when this path must stay cheap.
func BenchmarkLimiterRejected(b *testing.B) {
	l := NewLimiter(Options{ClientRate: 1e-9, ClientBurst: 1})
	l.Allow("bench-client") // drain the single token
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Allow("bench-client")
	}
}

// BenchmarkGateAcquireRelease measures the uncontended in-flight gate
// cycle wrapped around every dispatch computation.
func BenchmarkGateAcquireRelease(b *testing.B) {
	g := NewGate(64)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := g.Acquire(ctx); err != nil {
			b.Fatal(err)
		}
		g.Release()
	}
}
