package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"strconv"
	"testing"

	"opprox/internal/apps"
	"opprox/internal/feedback"
	"opprox/internal/launch"
	"opprox/internal/obs"
)

func planRequest(model, app string, budget float64, params apps.Params) *DispatchRequest {
	return &DispatchRequest{JobConfig: launch.JobConfig{
		App: app, Budget: budget, Params: params, ModelPath: model,
	}}
}

func buildKey(dreq *DispatchRequest, version string) []byte {
	kb := planKeyPool.Get().(*planKey)
	defer kb.release()
	appendPlanKey(kb, dreq, version)
	return append([]byte(nil), kb.buf...)
}

// FuzzPlanCacheKey proves the cache key is a canonical form of exactly
// the inputs a dispatch response depends on: two (model, version, app,
// budget, params) tuples produce the same key if and only if they are
// canonically equal — same strings, same budget rendering, same param
// set under strconv's shortest round-trip float form. Combined with the
// conformance suite (equal inputs ⇒ byte-identical responses, cached or
// not), key equality ⇔ response equality: the cache can neither serve a
// wrong plan (injectivity) nor miss a rephrased-but-identical request
// (canonicalization).
func FuzzPlanCacheKey(f *testing.F) {
	f.Add("pso.json", "v1", "pso", 10.0, "swarm", 16.0, "dim", 4.0,
		"pso.json", "v1", "pso", 10.0, "dim", 4.0, "swarm", 16.0)
	// Field-boundary attack: without length prefixes these would collide.
	f.Add("a", "bc", "d", 1.0, "k", 1.0, "k", 1.0,
		"ab", "c", "d", 1.0, "k", 1.0, "k", 1.0)
	// Signed zero: "-0" and "0" render differently and must key apart.
	f.Add("m", "v", "a", 0.0, "k", 0.0, "k", 0.0,
		"m", "v", "a", -0.0, "k", -0.0, "k", -0.0)
	// Param name vs value boundary.
	f.Add("m", "v", "a", 1.0, "x1", 2.0, "y", 3.0,
		"m", "v", "a", 1.0, "x", 12.0, "y", 3.0)
	f.Fuzz(func(t *testing.T,
		model1, ver1, app1 string, budget1 float64, k1a string, v1a float64, k1b string, v1b float64,
		model2, ver2, app2 string, budget2 float64, k2a string, v2a float64, k2b string, v2b float64,
	) {
		d1 := planRequest(model1, app1, budget1, apps.Params{k1a: v1a, k1b: v1b})
		d2 := planRequest(model2, app2, budget2, apps.Params{k2a: v2a, k2b: v2b})
		key1, key2 := buildKey(d1, ver1), buildKey(d2, ver2)

		same := model1 == model2 && ver1 == ver2 && app1 == app2 &&
			floatRepr(budget1) == floatRepr(budget2) &&
			paramsCanonicallyEqual(d1.Params, d2.Params)
		if got := bytes.Equal(key1, key2); got != same {
			t.Fatalf("key equality %v, canonical equality %v\n d1=%+v ver=%q key=%q\n d2=%+v ver=%q key=%q",
				got, same, d1.JobConfig, ver1, key1, d2.JobConfig, ver2, key2)
		}
		// The key must also be stable: rebuilding from the same request
		// (fresh pooled scratch, fresh map iteration order) is identical.
		if !bytes.Equal(key1, buildKey(d1, ver1)) {
			t.Fatalf("key not deterministic for %+v", d1.JobConfig)
		}
	})
}

func floatRepr(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func paramsCanonicallyEqual(a, b apps.Params) bool {
	if len(a) != len(b) {
		return false
	}
	for k, av := range a {
		bv, ok := b[k]
		if !ok || floatRepr(av) != floatRepr(bv) {
			return false
		}
	}
	return true
}

func TestPlanCacheLRUEviction(t *testing.T) {
	c := newPlanCache(2)
	put := func(key string) {
		c.put(key, "m.json", []byte(key), &feedback.DispatchRecord{ID: key})
	}
	put("a")
	put("b")
	if c.get([]byte("a")) == nil { // promotes a over b
		t.Fatal("a missing")
	}
	evicted := obs.Default.Counter("serve.plan.cache.evicted").Value()
	put("c") // must evict b, the LRU
	if got := obs.Default.Counter("serve.plan.cache.evicted").Value(); got != evicted+1 {
		t.Fatalf("evicted counter moved %d -> %d, want +1", evicted, got)
	}
	if c.get([]byte("b")) != nil {
		t.Fatal("LRU entry b survived eviction")
	}
	if c.get([]byte("a")) == nil || c.get([]byte("c")) == nil {
		t.Fatal("recently used entries evicted")
	}
	if c.len() != 2 {
		t.Fatalf("len = %d, want 2", c.len())
	}
}

func TestPlanCacheInvalidateModel(t *testing.T) {
	c := newPlanCache(8)
	c.put("p1", "pso.json", []byte("x"), nil)
	c.put("p2", "pso.json", []byte("y"), nil)
	c.put("l1", "lulesh.json", []byte("z"), nil)
	if n := c.invalidateModel("pso.json"); n != 2 {
		t.Fatalf("invalidated %d entries, want 2", n)
	}
	if c.get([]byte("p1")) != nil || c.get([]byte("p2")) != nil {
		t.Fatal("invalidated plan still served")
	}
	if c.get([]byte("l1")) == nil {
		t.Fatal("invalidation crossed model boundaries")
	}
	if n := c.invalidateModel("pso.json"); n != 0 {
		t.Fatalf("second invalidation dropped %d entries", n)
	}
}

func TestPlanCacheDisabled(t *testing.T) {
	c := newPlanCache(-1)
	c.put("k", "m", []byte("v"), nil)
	if c.get([]byte("k")) != nil {
		t.Fatal("disabled cache served an entry")
	}
	if c.len() != 0 {
		t.Fatal("disabled cache stored an entry")
	}
}

// TestPlanCacheNeverServesStaleVersion is the eviction/invalidation
// property test: across an arbitrary sequence of live-version swaps
// (reload with changed bytes — the same swap path promote and rollback
// share), a dispatch served through the cache always reports the
// current live version. The key's version field makes this hold even if
// invalidation were skipped entirely; the test also checks the swap
// hook actually dropped the model's plans.
func TestPlanCacheNeverServesStaleVersion(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model; skipped with -short")
	}
	store := newFakeStore()
	modelA := trainedModelJSON(t)
	// A byte-distinct but behaviorally identical publication: appended
	// whitespace changes the content hash, not the parsed model.
	modelB := append(append([]byte(nil), modelA...), '\n')
	store.files["pso.json"] = modelA

	s := New(Options{Store: store, Registry: RegistryOptions{RetryBase: 0}})
	ctx := context.Background()
	dreq := planRequest("pso.json", "pso", 10, apps.Params{"swarm": 16, "dim": 4})

	serve := func() string {
		t.Helper()
		body, degraded, err := s.dispatchBody(ctx, dreq)
		if err != nil || degraded {
			t.Fatalf("dispatch: degraded=%v err=%v", degraded, err)
		}
		var resp DispatchResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatal(err)
		}
		return resp.ModelVersion
	}

	for cycle := 0; cycle < 4; cycle++ {
		publish := modelA
		if cycle%2 == 1 {
			publish = modelB
		}
		store.mu.Lock()
		store.files["pso.json"] = publish
		store.mu.Unlock()
		if _, err := s.mgr.Reload(ctx, "pso.json"); err != nil {
			t.Fatal(err)
		}
		if cycle > 0 && s.plans.len() != 0 {
			t.Fatalf("cycle %d: swap left %d cached plans for the swapped model", cycle, s.plans.len())
		}
		liveVer, _ := s.mgr.LiveVersion("pso.json")
		for i := 0; i < 3; i++ { // cold, then two cache hits
			if got := serve(); got != liveVer {
				t.Fatalf("cycle %d request %d: served version %s, live is %s", cycle, i, got, liveVer)
			}
		}
	}
}

// TestDispatchPlanCacheHitZeroAllocs pins the acceptance criterion that
// the steady-state hit path allocates nothing: after warmup, a repeat
// dispatch is pooled key build + map lookup + cached bytes. The second
// case installs a shadow (as the retrainer does): a shadow is scored on
// feedback only, so a hit still allocates nothing and runs no Optimize.
func TestDispatchPlanCacheHitZeroAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model; skipped with -short")
	}
	store := newFakeStore()
	store.files["pso.json"] = trainedModelJSON(t)
	s := New(Options{Store: store, Registry: RegistryOptions{RetryBase: 0}})
	ctx := context.Background()
	dreq := planRequest("pso.json", "pso", 10, apps.Params{"swarm": 16, "dim": 4})

	if _, degraded, err := s.dispatchBody(ctx, dreq); err != nil || degraded {
		t.Fatalf("warmup: degraded=%v err=%v", degraded, err)
	}
	hit := func() {
		body, _, err := s.dispatchBody(ctx, dreq)
		if err != nil || body == nil {
			t.Fatal("hit path failed")
		}
	}
	runs := obs.Default.Counter("core.optimize.runs")
	for _, shadowed := range []bool{false, true} {
		if shadowed {
			recalibratedShadow(t, s, "pso.json", []float64{0.1, 0.1}, []float64{0.1, 0.1})
		}
		before := runs.Value()
		for i := 0; i < 50; i++ {
			hit()
		}
		if n := runs.Value() - before; n != 0 {
			t.Fatalf("shadowed=%v: plan-cache hits ran Optimize %d times", shadowed, n)
		}
		if raceEnabled {
			continue // allocation counts are not meaningful under -race
		}
		if allocs := testing.AllocsPerRun(200, hit); allocs != 0 {
			t.Fatalf("shadowed=%v: plan-cache hit allocates %.1f times per dispatch, want 0", shadowed, allocs)
		}
	}
}
