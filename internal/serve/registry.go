package serve

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"time"

	"opprox/internal/core"
	"opprox/internal/flight"
	"opprox/internal/obs"
)

// Registry is the model cache behind the serving layer. Each model file
// is read and validated once (LoadTrained runs the full structural
// checks, including the confidence-band validation), then served from
// memory behind a singleflight group: concurrent first requests for the
// same model share one load, and every later request is a cache hit.
//
// Failure policy:
//
//   - Transient store reads (I/O errors other than fs.ErrNotExist) are
//     retried with exponential backoff, bounded by Retries and the
//     request context.
//   - Missing files and validation failures are permanent for this
//     attempt: they are classified as ErrModelUnavailable immediately.
//   - Load errors are never cached. The failed key is forgotten so the
//     next request retries once the store heals; until then callers
//     degrade (see Server).
//   - Reload loads the replacement off to the side and installs it
//     atomically only on success; a failed reload keeps serving the
//     last-good model set.
type Registry struct {
	store     Store
	retries   int
	retryBase time.Duration

	// sleep waits for d or until ctx is done; tests stub it to keep the
	// backoff path instant.
	sleep func(ctx context.Context, d time.Duration) error

	group flight.Group[*core.Trained]
}

// RegistryOptions configures a Registry.
type RegistryOptions struct {
	// Retries is the number of additional attempts after the first for
	// transient store errors. Zero means no retry.
	Retries int
	// RetryBase is the first backoff delay; attempt k waits
	// RetryBase << (k-1). Defaults to 25ms.
	RetryBase time.Duration
}

// NewRegistry builds a registry over a model store.
func NewRegistry(store Store, opts RegistryOptions) *Registry {
	if opts.RetryBase <= 0 {
		opts.RetryBase = 25 * time.Millisecond
	}
	if opts.Retries < 0 {
		opts.Retries = 0
	}
	return &Registry{
		store:     store,
		retries:   opts.Retries,
		retryBase: opts.RetryBase,
		sleep:     sleepCtx,
	}
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// Get returns the cached models for name, loading them on first use.
// Concurrent callers share one load. Errors are returned but not cached:
// the next Get retries the store.
func (r *Registry) Get(ctx context.Context, name string) (*core.Trained, error) {
	tr, err, hit := r.group.Do(name, func() (*core.Trained, error) {
		return r.load(ctx, name)
	})
	if err != nil {
		// Do not let a failed load poison the cache; the store may heal
		// (model published, NFS back) and the next request should see it.
		r.group.Forget(name)
		obs.Inc("serve.model.load.failed")
		return nil, err
	}
	if hit {
		obs.Inc("serve.model.cache.hit")
	} else {
		obs.Inc("serve.model.cache.miss")
	}
	return tr, nil
}

// load is one full read+validate attempt chain against the store.
func (r *Registry) load(ctx context.Context, name string) (*core.Trained, error) {
	done := obs.Timer("serve.model.load")
	defer done()
	raw, err := r.ReadAll(ctx, name)
	if err != nil {
		return nil, err
	}
	tr, err := core.LoadTrained(bytes.NewReader(raw))
	if err != nil {
		// The file exists but fails structural validation (truncated,
		// corrupt bands, version skew): retrying the same bytes cannot
		// help.
		return nil, fmt.Errorf("%w: model %q: %v", ErrModelUnavailable, name, err)
	}
	return tr, nil
}

// ReadAll returns the raw bytes of a model file under the registry's
// retry/backoff policy — the byte-level primitive the lifecycle layer
// version-hashes before deciding whether to re-validate and swap.
func (r *Registry) ReadAll(ctx context.Context, name string) ([]byte, error) {
	var lastErr error
	for attempt := 0; attempt <= r.retries; attempt++ {
		if attempt > 0 {
			obs.Inc("serve.model.load.retry")
			if err := r.sleep(ctx, r.retryBase<<(attempt-1)); err != nil {
				return nil, err
			}
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		rc, err := r.store.Open(name)
		if err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				// A missing model is not transient on the timescale of one
				// request: fail now, let the caller degrade.
				return nil, fmt.Errorf("%w: model %q: %v", ErrModelUnavailable, name, err)
			}
			lastErr = err
			continue
		}
		raw, err := io.ReadAll(bufio.NewReader(rc))
		rc.Close()
		if err != nil {
			lastErr = err
			continue
		}
		return raw, nil
	}
	return nil, fmt.Errorf("%w: model %q after %d attempts: %v",
		ErrModelUnavailable, name, r.retries+1, lastErr)
}

// Install atomically places already-validated models into the cache under
// name — the lifecycle layer's promote/rollback primitive. Subsequent
// Gets are hits; an in-flight load's callers still receive its result.
func (r *Registry) Install(name string, tr *core.Trained) {
	r.group.Replace(name, tr)
}

// Forget drops the cached models for name so the next Get reloads from
// the store (used when a versioned alias is retired).
func (r *Registry) Forget(name string) {
	r.group.Forget(name)
}

// Reload atomically replaces the cached models for name with a freshly
// loaded copy. On failure the cached (last-good) models keep serving and
// the error is returned — a bad publish never takes down a model that
// was healthy.
func (r *Registry) Reload(ctx context.Context, name string) error {
	tr, err := r.load(ctx, name)
	if err != nil {
		obs.Inc("serve.model.reload.failed")
		return err
	}
	r.group.Replace(name, tr)
	obs.Inc("serve.model.reload.ok")
	return nil
}

// Models returns the names currently cached, sorted.
func (r *Registry) Models() []string { return r.group.Keys() }

// Len reports the number of cached model sets.
func (r *Registry) Len() int { return r.group.Len() }
