package serve

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"time"

	"opprox/internal/obs"
)

// Registry reads model files from the store under the serving layer's
// failure policy. It caches nothing: the lifecycle manager
// (internal/lifecycle) loads each model once through ReadAll, validates
// it and keeps it resident.
//
// Failure policy:
//
//   - Transient store reads (I/O errors other than fs.ErrNotExist) are
//     retried with exponential backoff, bounded by Retries and ctx.
//   - Missing files are permanent for this attempt: they are classified
//     as ErrModelUnavailable immediately.
//
// Validation, the retry of a failed load once the store heals, and the
// last-good hot reload are the lifecycle manager's.
type Registry struct {
	store     Store
	retries   int
	retryBase time.Duration

	// sleep waits for d or until ctx is done; tests stub it to keep the
	// backoff path instant.
	sleep func(ctx context.Context, d time.Duration) error
}

// The store-read policy of a zero RegistryOptions: two retries after
// the first attempt, backing off 25ms then 50ms.
const (
	defaultRetries   = 2
	defaultRetryBase = 25 * time.Millisecond
)

// RegistryOptions configures a Registry. The zero value is the serving
// policy (defaultRetries, defaultRetryBase); tests set the fields to
// pin an exact attempt count or an instant backoff.
type RegistryOptions struct {
	// Retries is the number of additional attempts after the first for
	// transient store errors (zero or negative: defaultRetries).
	Retries int
	// RetryBase is the first backoff delay; attempt k waits
	// RetryBase << (k-1) (zero or negative: defaultRetryBase).
	RetryBase time.Duration
}

// NewRegistry builds a registry over a model store.
func NewRegistry(store Store, opts RegistryOptions) *Registry {
	if opts.RetryBase <= 0 {
		opts.RetryBase = defaultRetryBase
	}
	if opts.Retries <= 0 {
		opts.Retries = defaultRetries
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

// ReadAll returns the raw bytes of a model file under the registry's
// retry/backoff policy — the byte-level primitive the lifecycle layer
// version-hashes and validates.
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
