package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"opprox/internal/apps"
	"opprox/internal/apps/pso"
	"opprox/internal/core"
	"opprox/internal/lifecycle"
)

// trainedModelJSON trains one small model set and returns its serialized
// form; cached across tests because training dominates test wall time.
var trainedModelOnce sync.Once
var trainedModelBytes []byte

func trainedModelJSON(t testing.TB) []byte {
	t.Helper()
	trainedModelOnce.Do(func() {
		opts := core.DefaultOptions()
		opts.Phases = 2
		opts.JointSamplesPerPhase = 6
		opts.MaxParamCombos = 3
		opts.Folds = 5
		tr, err := core.Train(apps.NewRunner(pso.New()), opts)
		if err != nil {
			panic(err)
		}
		var buf bytes.Buffer
		if err := tr.Save(&buf); err != nil {
			panic(err)
		}
		trainedModelBytes = buf.Bytes()
	})
	return trainedModelBytes
}

// fakeStore is a Store over an in-memory map with a programmable
// per-open failure sequence.
type fakeStore struct {
	mu    sync.Mutex
	files map[string][]byte
	// failures[name] errors are returned by successive Opens before the
	// content is served.
	failures map[string][]error
	opens    atomic.Int32
}

func newFakeStore() *fakeStore {
	return &fakeStore{files: map[string][]byte{}, failures: map[string][]error{}}
}

func (s *fakeStore) Open(name string) (io.ReadCloser, error) {
	s.opens.Add(1)
	s.mu.Lock()
	defer s.mu.Unlock()
	if q := s.failures[name]; len(q) > 0 {
		err := q[0]
		s.failures[name] = q[1:]
		return nil, err
	}
	b, ok := s.files[name]
	if !ok {
		return nil, fmt.Errorf("fake: %q: %w", name, fs.ErrNotExist)
	}
	return io.NopCloser(bytes.NewReader(b)), nil
}

// Put makes fakeStore a lifecycle publisher, mirroring FileStore.
func (s *fakeStore) Put(name string, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.files[name] = append([]byte(nil), data...)
	return nil
}

// instantSleep replaces the registry's backoff sleeper so retry tests
// don't wait.
func instantSleep(r *Registry) {
	r.sleep = func(ctx context.Context, d time.Duration) error { return ctx.Err() }
}

// The registry only reads bytes; the lifecycle manager is the model
// cache. The load-once, store-heals, corrupt-file and last-good reload
// cases therefore run through the manager (or the server's liveModel,
// which classifies its errors), and the retry cases through ReadAll.

func TestRegistryLoadsOnceAndCaches(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model; skipped with -short")
	}
	store := newFakeStore()
	store.files["pso.json"] = trainedModelJSON(t)
	mgr := lifecycle.NewManager(NewRegistry(store, RegistryOptions{}), nil, lifecycle.Options{})

	const workers = 16
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr, _, err := mgr.Live(context.Background(), "pso.json")
			if err != nil {
				t.Error(err)
			} else if tr == nil || tr.Phases != 2 {
				t.Errorf("bad model: %+v", tr)
			}
		}()
	}
	wg.Wait()
	if n := store.opens.Load(); n != 1 {
		t.Fatalf("store opened %d times for %d concurrent resolves, want 1", n, workers)
	}
	if got := mgr.Models(); len(got) != 1 || got[0] != "pso.json" {
		t.Fatalf("Models = %v", got)
	}
}

func TestRegistryRetriesTransientErrors(t *testing.T) {
	store := newFakeStore()
	store.files["m.json"] = []byte("model bytes")
	store.failures["m.json"] = []error{
		errors.New("transient: connection reset"),
		errors.New("transient: io timeout"),
	}
	reg := NewRegistry(store, RegistryOptions{Retries: 2})
	instantSleep(reg)

	raw, err := reg.ReadAll(context.Background(), "m.json")
	if err != nil {
		t.Fatalf("expected retries to recover, got %v", err)
	}
	if string(raw) != "model bytes" {
		t.Fatalf("ReadAll = %q", raw)
	}
	if n := store.opens.Load(); n != 3 {
		t.Fatalf("store opened %d times, want 3 (2 failures + success)", n)
	}
}

// TestZeroOptionsRetryTransientStoreReads: a server built from zero
// Options reads the store under the same policy as opprox-serve, so two
// transient Open failures cost two backoffs, not a degraded dispatch.
func TestZeroOptionsRetryTransientStoreReads(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model; skipped with -short")
	}
	store := newFakeStore()
	store.files["pso.json"] = trainedModelJSON(t)
	store.failures["pso.json"] = []error{
		errors.New("transient: connection reset"),
		errors.New("transient: io timeout"),
	}
	ts := httptest.NewServer(New(Options{Store: store}).Handler())
	t.Cleanup(ts.Close)

	status, body := postJSON(t, ts.URL+"/v1/dispatch", dispatchBody)
	if status != http.StatusOK {
		t.Fatalf("dispatch: %d %s", status, body)
	}
	var resp DispatchResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Degraded {
		t.Fatalf("dispatch degraded after transient store errors: %s", body)
	}
	if n := store.opens.Load(); n != 3 {
		t.Fatalf("store opened %d times, want 3 (2 failures + success)", n)
	}
}

func TestRegistryRetriesExhausted(t *testing.T) {
	store := newFakeStore()
	store.failures["m.json"] = []error{
		errors.New("transient 1"), errors.New("transient 2"), errors.New("transient 3"),
	}
	reg := NewRegistry(store, RegistryOptions{Retries: 1})
	instantSleep(reg)

	_, err := reg.ReadAll(context.Background(), "m.json")
	if !errors.Is(err, ErrModelUnavailable) {
		t.Fatalf("exhausted retries should classify as ErrModelUnavailable, got %v", err)
	}
	if n := store.opens.Load(); n != 2 {
		t.Fatalf("store opened %d times, want 2 (first + 1 retry)", n)
	}
}

func TestRegistryMissingModelNoRetry(t *testing.T) {
	store := newFakeStore()
	reg := NewRegistry(store, RegistryOptions{Retries: 5})
	instantSleep(reg)

	_, err := reg.ReadAll(context.Background(), "missing.json")
	if !errors.Is(err, ErrModelUnavailable) {
		t.Fatalf("got %v, want ErrModelUnavailable", err)
	}
	if n := store.opens.Load(); n != 1 {
		t.Fatalf("store opened %d times for a missing model, want 1 (no retry)", n)
	}
	mgr := lifecycle.NewManager(reg, nil, lifecycle.Options{})
	if _, _, err := mgr.Live(context.Background(), "missing.json"); !errors.Is(err, ErrModelUnavailable) {
		t.Fatalf("Live = %v, want ErrModelUnavailable", err)
	}
	if got := mgr.Models(); len(got) != 0 {
		t.Fatalf("failed load left a cache entry: %v", got)
	}
}

func TestRegistryCorruptModelNoRetryNoPanic(t *testing.T) {
	store := newFakeStore()
	store.files["bad.json"] = []byte(`{"version": 1, "phases":`)
	srv := New(Options{Store: store, Registry: RegistryOptions{Retries: 3, RetryBase: time.Microsecond}})

	_, _, err := srv.liveModel(context.Background(), "bad.json")
	if !errors.Is(err, ErrModelUnavailable) {
		t.Fatalf("got %v, want ErrModelUnavailable", err)
	}
	if n := store.opens.Load(); n != 1 {
		t.Fatalf("store opened %d times for a corrupt model, want 1 (validation is permanent)", n)
	}
}

func TestRegistryErrorNotCached(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model; skipped with -short")
	}
	store := newFakeStore()
	srv := New(Options{Store: store})

	if _, _, err := srv.liveModel(context.Background(), "late.json"); !errors.Is(err, ErrModelUnavailable) {
		t.Fatalf("got %v, want ErrModelUnavailable", err)
	}
	// The model is published after the first failure; the next request
	// must see it rather than a cached error.
	store.mu.Lock()
	store.files["late.json"] = trainedModelJSON(t)
	store.mu.Unlock()
	if _, _, err := srv.liveModel(context.Background(), "late.json"); err != nil {
		t.Fatalf("store healed but the model still fails to resolve: %v", err)
	}
}

func TestRegistryReloadFallsBackToLastGood(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model; skipped with -short")
	}
	store := newFakeStore()
	store.files["pso.json"] = trainedModelJSON(t)
	mgr := lifecycle.NewManager(NewRegistry(store, RegistryOptions{}), nil, lifecycle.Options{})
	ctx := context.Background()

	good, goodVer, err := mgr.Live(ctx, "pso.json")
	if err != nil {
		t.Fatal(err)
	}

	// A bad publish lands: reload must fail but keep serving last-good.
	store.mu.Lock()
	store.files["pso.json"] = []byte(`{"version": 99}`)
	store.mu.Unlock()
	if _, err := mgr.Reload(ctx, "pso.json"); err == nil {
		t.Fatal("reload of a corrupt file reported success")
	}
	cur, curVer, err := mgr.Live(ctx, "pso.json")
	if err != nil {
		t.Fatalf("last-good model lost after failed reload: %v", err)
	}
	if cur != good || curVer != goodVer {
		t.Fatal("failed reload swapped the model set")
	}

	// A good publish with new bytes (the same model, compacted) lands:
	// reload must atomically install it.
	var compact bytes.Buffer
	if err := json.Compact(&compact, trainedModelJSON(t)); err != nil {
		t.Fatal(err)
	}
	store.mu.Lock()
	store.files["pso.json"] = compact.Bytes()
	store.mu.Unlock()
	if changed, err := mgr.Reload(ctx, "pso.json"); err != nil || !changed {
		t.Fatalf("reload of new good bytes = (changed=%v, %v)", changed, err)
	}
	cur2, cur2Ver, err := mgr.Live(ctx, "pso.json")
	if err != nil {
		t.Fatal(err)
	}
	if cur2 == good || cur2Ver == goodVer {
		t.Fatal("successful reload did not swap the model set")
	}
}

func TestRegistryContextCancellation(t *testing.T) {
	store := newFakeStore()
	store.failures["m.json"] = []error{errors.New("transient")}
	reg := NewRegistry(store, RegistryOptions{Retries: 3, RetryBase: time.Hour})

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := reg.ReadAll(ctx, "m.json")
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled (backoff must respect ctx)", err)
	}
}

func TestFileStoreConfinesToRoot(t *testing.T) {
	root := t.TempDir()
	inside := filepath.Join(root, "ok.json")
	if err := os.WriteFile(inside, []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	outside := filepath.Join(filepath.Dir(root), "secret.json")
	if err := os.WriteFile(outside, []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	defer os.Remove(outside)

	store := FileStore{Root: root}
	if rc, err := store.Open("ok.json"); err != nil {
		t.Fatalf("in-root open failed: %v", err)
	} else {
		rc.Close()
	}
	for _, name := range []string{"../secret.json", "sub/../../secret.json"} {
		if rc, err := store.Open(name); err == nil {
			rc.Close()
			t.Fatalf("traversal %q escaped the store root", name)
		} else if !strings.Contains(err.Error(), "escapes") {
			// A cleaned path that stays inside the root is fine; one that
			// reaches the sibling file is not. Both names above resolve
			// outside root, so the rejection must be the containment check.
			t.Fatalf("traversal %q rejected for the wrong reason: %v", name, err)
		}
	}
	// Missing files keep their fs.ErrNotExist classification.
	if _, err := store.Open("absent.json"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("missing file error = %v, want fs.ErrNotExist", err)
	}
}
