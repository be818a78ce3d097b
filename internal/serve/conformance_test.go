package serve

// The black-box serving conformance suite: for a fixed (model version,
// params, budget), every serving path must return byte-identical
// response bodies — cold, plan-cache hit, concurrent cold computations,
// sharded behind one replica, and sharded across three replicas with
// proxy hops — and the identity must survive promote -> rollback cycles.
// The suite only speaks HTTP (plus one ConfigureCluster call per
// server), so any future cache, concurrency or routing change that skews
// a single byte fails here regardless of which internal layer caused it.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"opprox/internal/feedback"
	"opprox/internal/obs"
	"opprox/internal/retrain"
	"opprox/internal/shard"
)

// conformanceDispatch posts the canonical dispatch request and returns
// the raw body after asserting a non-degraded 200.
func conformanceDispatch(t *testing.T, baseURL string) []byte {
	t.Helper()
	return postDispatch(t, baseURL, dispatchBody)
}

// postDispatch posts one dispatch request and returns the raw body after
// asserting a non-degraded 200.
func postDispatch(t *testing.T, baseURL, req string) []byte {
	t.Helper()
	status, body := postJSON(t, baseURL+"/v1/dispatch", req)
	if status != http.StatusOK {
		t.Fatalf("dispatch: %d %s", status, body)
	}
	var resp DispatchResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Degraded {
		t.Fatalf("dispatch degraded: %s", body)
	}
	return body
}

func assertSameBody(t *testing.T, path string, got, want []byte) {
	t.Helper()
	if !bytes.Equal(got, want) {
		t.Fatalf("%s response differs from cold baseline:\n got %s\nwant %s", path, got, want)
	}
}

// newShardedFleet builds n in-process replicas over one shared store,
// wires them into a cluster, and returns their names and base URLs.
// Replica names are deliberately unequal to the smoke script's so the
// routing is exercised under more than one topology.
func newShardedFleet(t *testing.T, store Store, n int, opt ...func(*Options)) (names []string, urls map[string]string) {
	t.Helper()
	all := []string{"alpha", "beta", "gamma", "delta"}
	names = all[:n]
	servers := make([]*Server, n)
	urls = make(map[string]string, n)
	for i, name := range names {
		o := Options{Store: store, Registry: RegistryOptions{RetryBase: time.Microsecond}}
		for _, f := range opt {
			f(&o)
		}
		servers[i] = New(o)
		ts := httptest.NewServer(servers[i].Handler())
		t.Cleanup(ts.Close)
		urls[name] = ts.URL
	}
	for i, name := range names {
		err := servers[i].ConfigureCluster(ClusterOptions{Self: name, Replicas: urls})
		if err != nil {
			t.Fatal(err)
		}
	}
	return names, urls
}

// TestServingConformance is the five-path byte-identity matrix.
func TestServingConformance(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model; skipped with -short")
	}
	store := newFakeStore()
	store.files["pso.json"] = trainedModelJSON(t)

	// Path 1+2: cold, then plan-cache hit, on a fresh standalone server.
	coldSrv := newTestServer(t, store)
	want := conformanceDispatch(t, coldSrv.URL)
	hit := conformanceDispatch(t, coldSrv.URL)
	assertSameBody(t, "plan-cache-hit", hit, want)

	// Path 3: concurrent — plan cache disabled so every request computes
	// its plan on its own goroutine, in a mixed burst of identical and
	// distinct budgets. Each body must equal its budget's serial cold
	// body from coldSrv (the first dispatch of that budget there).
	budgets := []float64{10, 2.5, 7, 15, 25}
	serial := map[float64][]byte{10: want}
	for _, b := range budgets[1:] {
		serial[b] = postDispatch(t, coldSrv.URL, dispatchWithBudget(b))
	}
	concSrv := newTestServer(t, store, func(o *Options) { o.PlanCacheCap = -1 })
	const burst = 20
	bodies := make([][]byte, burst)
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(concSrv.URL+"/v1/dispatch", "application/json",
				strings.NewReader(dispatchWithBudget(budgets[i%len(budgets)])))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			var buf bytes.Buffer
			if _, err := buf.ReadFrom(resp.Body); err != nil {
				t.Error(err)
				return
			}
			bodies[i] = buf.Bytes()
		}(i)
	}
	wg.Wait()
	for i, b := range bodies {
		assertSameBody(t, fmt.Sprintf("concurrent (budget %g)", budgets[i%len(budgets)]), b, serial[budgets[i%len(budgets)]])
	}

	// Path 4: sharded, one replica — the proxy-or-serve decision always
	// lands on serve.
	_, urls1 := newShardedFleet(t, store, 1)
	for _, u := range urls1 {
		assertSameBody(t, "sharded-1-replica", conformanceDispatch(t, u), want)
	}

	// Path 5: sharded, three replicas — the dispatch reaches the owner
	// directly on one URL and via a proxy hop on the other two, and all
	// three relay identical bytes.
	names3, urls3 := newShardedFleet(t, store, 3)
	for _, name := range names3 {
		assertSameBody(t, "sharded-3-replica via "+name, conformanceDispatch(t, urls3[name]), want)
	}
}

// TestServingConformanceAcrossPromoteRollback drives a real shadow
// promote and a rollback on a standalone server: post-promote bodies
// must match a fresh server started on the promoted store (no cached
// leftovers of the old version), and post-rollback bodies must be
// byte-identical to the original cold baseline again (no cached
// leftovers of the promoted version).
func TestServingConformanceAcrossPromoteRollback(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model; skipped with -short")
	}
	store := newFakeStore()
	store.files["pso.json"] = trainedModelJSON(t)
	opts := pilotOptions(store)
	opts.Lifecycle.DisableAutoPromote = true
	srv := New(opts)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	original := conformanceDispatch(t, ts.URL)
	var dr DispatchResponse
	if err := json.Unmarshal(original, &dr); err != nil {
		t.Fatal(err)
	}

	// Drive drifted feedback, then dark-launch a recalibrated shadow.
	driftToShadow(t, srv, ts.URL, dr.DispatchID)

	if status, body := postJSON(t, ts.URL+"/v1/promote", `{"model": "pso.json"}`); status != http.StatusOK {
		t.Fatalf("promote: %d %s", status, body)
	}
	promoted := conformanceDispatch(t, ts.URL)
	if bytes.Equal(promoted, original) {
		t.Fatal("promote did not change the served plan (shadow identical to live?)")
	}
	// Cache transparency across the swap: a cached repeat and a fresh
	// server on the promoted store agree byte for byte.
	assertSameBody(t, "post-promote cache hit", conformanceDispatch(t, ts.URL), promoted)
	fresh := newTestServer(t, store)
	assertSameBody(t, "fresh server on promoted store", conformanceDispatch(t, fresh.URL), promoted)

	if status, body := postJSON(t, ts.URL+"/v1/rollback", `{"model": "pso.json"}`); status != http.StatusOK {
		t.Fatalf("rollback: %d %s", status, body)
	}
	assertSameBody(t, "post-rollback cold", conformanceDispatch(t, ts.URL), original)
	assertSameBody(t, "post-rollback cache hit", conformanceDispatch(t, ts.URL), original)
}

// TestShardedPromoteRollbackCoherence runs the lifecycle drill across a
// 3-replica fleet through a non-owner replica: dispatch, feedback,
// promote and rollback all route to the model's owner, so every replica
// serves the same version at every step (invariant D11) and the bodies
// track the standalone baseline byte for byte.
func TestShardedPromoteRollbackCoherence(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model; skipped with -short")
	}
	store := newFakeStore()
	store.files["pso.json"] = trainedModelJSON(t)
	names, urls := newShardedFleet(t, store, 3, func(o *Options) {
		o.Lifecycle.DisableAutoPromote = true
		flog, err := feedback.OpenLogOptions(filepath.Join(t.TempDir(), "telemetry.jsonl"), feedback.LogOptions{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { flog.Close() })
		o.FeedbackLog = flog
		o.Retrain = true
	})

	tbl, err := shard.New(names...)
	if err != nil {
		t.Fatal(err)
	}
	owner, _ := tbl.Owner("pso.json")
	client := ""
	for _, n := range names {
		if n != owner {
			client = n
			break
		}
	}
	t.Logf("owner=%s, driving everything through non-owner %s", owner, client)

	original := conformanceDispatch(t, urls[client])
	var dr DispatchResponse
	if err := json.Unmarshal(original, &dr); err != nil {
		t.Fatal(err)
	}

	// Feedback lands on the client replica, which holds no record for
	// the dispatch (the owner served it) and must forward the report:
	// the drifted reports log the retrain minimum of telemetry rows (2
	// per report) on the owner.
	for i := 0; i < retrain.DefaultMinSamples/2; i++ {
		status, body := postJSON(t, urls[client]+"/v1/feedback", driftedFeedback(dr.DispatchID))
		if status != http.StatusOK {
			t.Fatalf("forwarded feedback: %d %s", status, body)
		}
		var fr feedbackResponse
		if err := json.Unmarshal(body, &fr); err != nil {
			t.Fatal(err)
		}
		if fr.State != "drifting" {
			t.Fatalf("forwarded drifted report %d: %s", i, body)
		}
	}
	// The retrain routes to the owner, replays its telemetry and
	// dark-launches the winner there.
	status, body := postJSON(t, urls[client]+"/v1/retrain", `{"model": "pso.json"}`)
	if status != http.StatusOK || !strings.Contains(string(body), `"status":"shadow_created"`) {
		t.Fatalf("proxied retrain: %d %s", status, body)
	}

	if status, body := postJSON(t, urls[client]+"/v1/promote", `{"model": "pso.json"}`); status != http.StatusOK {
		t.Fatalf("proxied promote: %d %s", status, body)
	}
	promoted := conformanceDispatch(t, urls[client])
	if bytes.Equal(promoted, original) {
		t.Fatal("proxied promote did not change the served plan")
	}
	for _, n := range names {
		assertSameBody(t, "post-promote via "+n, conformanceDispatch(t, urls[n]), promoted)
	}

	if status, body := postJSON(t, urls[client]+"/v1/rollback", `{"model": "pso.json"}`); status != http.StatusOK {
		t.Fatalf("proxied rollback: %d %s", status, body)
	}
	for _, n := range names {
		assertSameBody(t, "post-rollback via "+n, conformanceDispatch(t, urls[n]), original)
	}
}

// TestServingConformanceFrontLibrary runs the byte-identity matrix's
// cold, plan-cache-hit and promote -> rollback steps while watching the
// Pareto-front plan library: every model file carries its library, so
// no server load, lifecycle resolve, shadow install or rollback may
// rebuild one (the recalibrated shadow only re-prunes the phases its
// shifts moved), and the bodies stay byte-identical throughout.
func TestServingConformanceFrontLibrary(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model; skipped with -short")
	}
	store := newFakeStore()
	store.files["pso.json"] = trainedModelJSON(t)
	builds := obs.Default.Counter("core.library.builds")
	before := builds.Value()

	first := newTestServer(t, store)
	want := conformanceDispatch(t, first.URL)
	assertSameBody(t, "cache hit", conformanceDispatch(t, first.URL), want)

	opts := pilotOptions(store)
	opts.Lifecycle.DisableAutoPromote = true
	srv := New(opts)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	original := conformanceDispatch(t, ts.URL)
	assertSameBody(t, "pilot cold", original, want)
	var dr DispatchResponse
	if err := json.Unmarshal(original, &dr); err != nil {
		t.Fatal(err)
	}
	driftToShadow(t, srv, ts.URL, dr.DispatchID)
	if status, body := postJSON(t, ts.URL+"/v1/promote", `{"model": "pso.json"}`); status != http.StatusOK {
		t.Fatalf("promote: %d %s", status, body)
	}
	promoted := conformanceDispatch(t, ts.URL)
	if bytes.Equal(promoted, original) {
		t.Fatal("promote did not change the served plan")
	}
	// The promoted version's persisted library serves a fresh server the
	// same bytes.
	fresh := newTestServer(t, store)
	assertSameBody(t, "fresh server on promoted store", conformanceDispatch(t, fresh.URL), promoted)

	if status, body := postJSON(t, ts.URL+"/v1/rollback", `{"model": "pso.json"}`); status != http.StatusOK {
		t.Fatalf("rollback: %d %s", status, body)
	}
	assertSameBody(t, "post-rollback", conformanceDispatch(t, ts.URL), original)
	if n := builds.Value() - before; n != 0 {
		t.Fatalf("serving rebuilt the front library %d times", n)
	}
}

// TestClusterEndpoint checks the introspection view from both a
// standalone server and each member of a sharded fleet.
func TestClusterEndpoint(t *testing.T) {
	store := newFakeStore()
	ts := newTestServer(t, store)
	status, body := getJSON(t, ts.URL+"/v1/cluster")
	if status != http.StatusOK {
		t.Fatalf("standalone /v1/cluster: %d %s", status, body)
	}
	var cr clusterResponse
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatal(err)
	}
	if cr.Sharded {
		t.Fatalf("standalone server claims sharding: %s", body)
	}

	names, urls := newShardedFleet(t, store, 3)
	for _, name := range names {
		status, body := getJSON(t, urls[name]+"/v1/cluster")
		if status != http.StatusOK {
			t.Fatalf("%s /v1/cluster: %d %s", name, status, body)
		}
		cr = clusterResponse{}
		if err := json.Unmarshal(body, &cr); err != nil {
			t.Fatal(err)
		}
		if !cr.Sharded || cr.Self != name || len(cr.Replicas) != 3 {
			t.Fatalf("%s cluster view: %s", name, body)
		}
		selfSeen := false
		for _, r := range cr.Replicas {
			if r.Self {
				if r.Name != name {
					t.Fatalf("%s marks %s as self", name, r.Name)
				}
				selfSeen = true
			}
			if r.URL == "" {
				t.Fatalf("replica %s has no url: %s", r.Name, body)
			}
		}
		if !selfSeen {
			t.Fatalf("%s cluster view has no self marker: %s", name, body)
		}
	}
}
