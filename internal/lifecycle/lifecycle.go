// Package lifecycle is the model-lifecycle half of the closed serving
// loop: the versioned model cache the serving layer resolves models
// through. Every model file gets a content-hash version. The only source
// of a **shadow** version is the retrain pipeline (internal/retrain), which
// hands a fully built candidate to CreateShadowFromBytes. A shadow is
// dark-launched in the feedback sense only: dispatches are planned and
// served by the live version alone, while every feedback report scores
// both versions' predictions against the realized values. The shadow is
// promoted once its realized-error window beats the live version's, with
// one-step rollback.
//
// The package does not import internal/serve: it talks to the serving
// layer through two small interfaces (Registry, Publisher) that
// serve.Registry and serve.FileStore satisfy structurally, so the import
// edge runs serve -> lifecycle and the HTTP wiring stays in serve.
//
// Every decision here is a pure function of the dispatch + feedback
// sequence: versions are content hashes, promoted bytes are exactly the
// candidate bytes the retrainer built, and the error windows are
// fixed-size rings reduced in index order. A promoted model file
// therefore reproduces byte-identical dispatches on a fresh server (the
// closed-loop e2e test pins this).
package lifecycle

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"

	"opprox/internal/approx"
	"opprox/internal/core"
	"opprox/internal/feedback"
	"opprox/internal/flight"
	"opprox/internal/obs"
)

// Registry is the byte-reading surface the manager loads models through
// — *serve.Registry satisfies it. ReadAll applies the registry's
// retry/backoff policy. The manager is the only model cache.
type Registry interface {
	ReadAll(ctx context.Context, name string) ([]byte, error)
}

// Publisher persists model bytes back into the store (atomic
// write-then-rename; serve.FileStore satisfies it). The manager writes
// each shadow under its versioned name and, on promote/rollback, the
// winning bytes under the base name — a fresh server started on the
// base name serves exactly the promoted model.
type Publisher interface {
	Put(name string, data []byte) error
}

// Auto-promotion compares the live and shadow versions' mean realized
// error over rings of defaultErrWindow samples, once both rings hold at
// least defaultMinShadowSamples.
const (
	defaultErrWindow        = 32
	defaultMinShadowSamples = 8
)

// Options tunes the lifecycle manager. The zero value is usable.
type Options struct {
	// errWindow and minShadowSamples override the constants above (zero:
	// the constant); only this package's tests set them.
	errWindow        int
	minShadowSamples int
	// DisableAutoPromote turns automatic promotion off; /v1/promote
	// still works.
	DisableAutoPromote bool
	// OnSwap, when set, is called with the base model name every time the
	// live version changes (promote, rollback, reload). The serving layer
	// hooks its dispatch-plan cache here so retired versions release their
	// cached plans immediately. Called with the model's state lock held —
	// the callback must not call back into the Manager.
	OnSwap func(name string)
}

func (o Options) withDefaults() Options {
	if o.errWindow <= 0 {
		o.errWindow = defaultErrWindow
	}
	if o.minShadowSamples <= 0 {
		o.minShadowSamples = defaultMinShadowSamples
	}
	return o
}

// Version is the content-hash version of a model file's bytes.
func Version(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:6])
}

// VersionedName is the store name a specific model version is persisted
// under ("pso.json@3f2a...").
func VersionedName(name, version string) string {
	return name + "@" + version
}

// Lifecycle errors; the serving layer maps them onto its taxonomy.
var (
	// ErrNoShadow: promote was requested but no shadow version exists.
	ErrNoShadow = errors.New("lifecycle: no shadow version")
	// ErrNoPrevious: rollback was requested but no previous version exists.
	ErrNoPrevious = errors.New("lifecycle: no previous version")
	// ErrUnknownModel: the named model was never resolved by this manager.
	ErrUnknownModel = errors.New("lifecycle: unknown model")
	// ErrIdenticalToLive: a dark-launch candidate hashes to the version
	// already live — nothing to evaluate. Raced retrains hit this when a
	// promote lands between candidate selection and the dark-launch.
	ErrIdenticalToLive = errors.New("lifecycle: candidate is identical to live")
)

// errWindow is a fixed ring of realized-error samples reduced in index
// order (deterministic mean).
type errWindow struct {
	v      []float64
	next   int
	filled int
}

func (w *errWindow) push(size int, e float64) {
	if w.v == nil {
		w.v = make([]float64, size)
	}
	w.v[w.next] = e
	w.next = (w.next + 1) % size
	if w.filled < size {
		w.filled++
	}
}

func (w *errWindow) mean() float64 {
	if w.filled == 0 {
		return 0
	}
	sum := 0.0
	for _, e := range w.v[:w.filled] {
		sum += e
	}
	return sum / float64(w.filled)
}

// shadowState is a dark-launched candidate version.
type shadowState struct {
	version string
	tr      *core.Trained
	raw     []byte

	liveErr   errWindow
	shadowErr errWindow
}

// modelState is the lifecycle view of one base model name.
type modelState struct {
	mu sync.Mutex

	name        string
	liveVersion string
	live        *core.Trained
	liveRaw     []byte

	prevVersion string
	prev        *core.Trained
	prevRaw     []byte

	shadow *shadowState
}

// Manager is the versioned model-lifecycle registry.
type Manager struct {
	reg  Registry
	pub  Publisher
	opts Options

	group flight.Group[*modelState]
}

// NewManager builds a lifecycle manager over a registry and a publisher.
// pub may be nil, in which case shadow and promoted versions live only
// in memory (tests; a production store should always persist).
func NewManager(reg Registry, pub Publisher, opts Options) *Manager {
	return &Manager{reg: reg, pub: pub, opts: opts.withDefaults()}
}

// state resolves (loading on first use, singleflight) the lifecycle
// state for a base model name. The load runs once per name on its own
// goroutine, detached from any one caller's deadline; a caller whose ctx
// ends stops waiting and gets ctx.Err(), and later callers join the same
// load. So a store that hangs in Open parks one goroutine per model, not
// one per timed-out request.
func (m *Manager) state(ctx context.Context, name string) (*modelState, error) {
	st, err, _ := m.group.Do(ctx, name, func() (*modelState, error) {
		st, err := m.load(context.WithoutCancel(ctx), name)
		if err != nil {
			// Never cache a failed load: the store may heal. Only the
			// load's own failure forgets the name — a caller that gave up
			// on its deadline must not start a second load.
			m.group.Forget(name)
		}
		return st, err
	})
	return st, err
}

// load reads and validates one model file into a fresh lifecycle state.
func (m *Manager) load(ctx context.Context, name string) (*modelState, error) {
	raw, err := m.reg.ReadAll(ctx, name)
	if err != nil {
		return nil, err
	}
	tr, err := core.LoadTrained(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("model %q: %w", name, err)
	}
	return &modelState{
		name:        name,
		liveVersion: Version(raw),
		live:        tr,
		liveRaw:     raw,
	}, nil
}

// peek returns the state only if the model was already resolved
// successfully (non-blocking; never fabricates a slot).
func (m *Manager) peek(name string) (*modelState, bool) {
	return m.group.Peek(name)
}

// Live resolves the live version for a base model name: the trained
// models and their content-hash version.
func (m *Manager) Live(ctx context.Context, name string) (*core.Trained, string, error) {
	st, err := m.state(ctx, name)
	if err != nil {
		return nil, "", err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.live, st.liveVersion, nil
}

// LiveVersion returns the live version for an already-resolved model
// without loading anything (feedback paths must not trigger I/O).
func (m *Manager) LiveVersion(name string) (string, bool) {
	st, ok := m.peek(name)
	if !ok {
		return "", false
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.liveVersion, true
}

// CreateShadowFromBytes dark-launches a fully built candidate model —
// the retrain pipeline's entry point and the only way a shadow is made:
// the caller (a retrain driver) hands over the serialized model and the
// manager validates, persists and installs it as the shadow. An existing
// shadow is replaced (the newer candidate was fitted on strictly more
// telemetry), except when the bytes hash to the version already
// shadowing, which keeps the in-flight evaluation windows. Candidates
// identical to the live version are rejected.
func (m *Manager) CreateShadowFromBytes(name string, raw []byte) (string, error) {
	st, ok := m.peek(name)
	if !ok {
		return "", fmt.Errorf("%w: %s", ErrUnknownModel, name)
	}
	tr, err := core.LoadTrained(bytes.NewReader(raw))
	if err != nil {
		return "", fmt.Errorf("lifecycle: candidate model: %w", err)
	}
	ver := Version(raw)
	st.mu.Lock()
	defer st.mu.Unlock()
	if ver == st.liveVersion {
		return "", fmt.Errorf("%w: %s for %s", ErrIdenticalToLive, ver, name)
	}
	if st.shadow != nil && st.shadow.version == ver {
		return ver, nil
	}
	if m.pub != nil {
		if err := m.pub.Put(VersionedName(name, ver), raw); err != nil {
			return "", fmt.Errorf("lifecycle: persisting shadow: %w", err)
		}
	}
	st.shadow = &shadowState{version: ver, tr: tr, raw: append([]byte(nil), raw...)}
	obs.Inc("lifecycle.shadow.created")
	obs.LogEvent("lifecycle.shadow", "%s: retrained shadow %s dark-launched next to live %s", name, ver, st.liveVersion)
	return ver, nil
}

// LiveRaw returns the live version's serialized bytes and version for an
// already-resolved model — the retrain driver's starting point (it
// clones the live model from its deterministic serialized form, never
// from shared in-memory state).
func (m *Manager) LiveRaw(name string) ([]byte, string, bool) {
	st, ok := m.peek(name)
	if !ok {
		return nil, "", false
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.liveRaw, st.liveVersion, true
}

// Feedback folds one feedback report's realized values into the
// live-vs-shadow error comparison and returns whether it auto-promoted
// the shadow. Reports for a version other than the current live one are
// ignored (the dispatch predates a swap). The per-phase error is the
// mean absolute residual across both targets on their training scales —
// the same quantity the confidence bands were calibrated on.
func (m *Manager) Feedback(rec *feedback.DispatchRecord, observations []feedback.PhaseObservation) (promoted bool, err error) {
	st, ok := m.peek(rec.Model)
	if !ok {
		return false, nil
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if rec.Version != st.liveVersion || st.shadow == nil {
		return false, nil
	}
	sh := st.shadow
	for _, o := range observations {
		if o.Phase < 0 || o.Phase >= len(rec.Diags) || o.Phase >= len(rec.Levels) {
			continue
		}
		realS := core.SpeedupScale(o.Speedup)
		realD := core.DegradationScale(o.Degradation)
		liveDiag := rec.Diags[o.Phase]
		liveErr := (abs(realS-liveDiag.SpeedupRaw) + abs(realD-liveDiag.DegRaw)) / 2

		shDiag, derr := sh.tr.DiagnosePhase(rec.Params, o.Phase, approx.Config(rec.Levels[o.Phase]))
		if derr != nil {
			// The shadow cannot price this dispatch (should not happen:
			// same blocks, same phases); skip the sample for both windows
			// so the comparison stays apples to apples.
			continue
		}
		shadowErr := (abs(realS-shDiag.SpeedupRaw) + abs(realD-shDiag.DegRaw)) / 2
		sh.liveErr.push(m.opts.errWindow, liveErr)
		sh.shadowErr.push(m.opts.errWindow, shadowErr)
	}
	if m.opts.DisableAutoPromote {
		return false, nil
	}
	if sh.liveErr.filled < m.opts.minShadowSamples || sh.shadowErr.filled < m.opts.minShadowSamples {
		return false, nil
	}
	if sh.shadowErr.mean() >= sh.liveErr.mean() {
		return false, nil
	}
	if err := m.promoteLocked(st); err != nil {
		return false, err
	}
	obs.Inc("lifecycle.promote.auto")
	return true, nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// Promote makes the shadow version live: the previous live version is
// retained for one-step rollback, the promoted bytes are persisted under
// both the versioned and the base store name (atomic publish), and the
// serving cache is swapped in the same step.
func (m *Manager) Promote(name string) error {
	st, ok := m.peek(name)
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownModel, name)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return m.promoteLocked(st)
}

func (m *Manager) promoteLocked(st *modelState) error {
	if st.shadow == nil {
		return fmt.Errorf("%w for %s", ErrNoShadow, st.name)
	}
	sh := st.shadow
	if m.pub != nil {
		// Keep the outgoing live version recoverable under its versioned
		// name before the base name is overwritten.
		if err := m.pub.Put(VersionedName(st.name, st.liveVersion), st.liveRaw); err != nil {
			return fmt.Errorf("lifecycle: preserving live version: %w", err)
		}
		if err := m.pub.Put(st.name, sh.raw); err != nil {
			return fmt.Errorf("lifecycle: publishing promoted version: %w", err)
		}
	}
	st.prevVersion, st.prev, st.prevRaw = st.liveVersion, st.live, st.liveRaw
	st.liveVersion, st.live, st.liveRaw = sh.version, sh.tr, sh.raw
	st.shadow = nil
	m.noteSwap(st.name)
	obs.Inc("lifecycle.promote")
	obs.LogEvent("lifecycle.promote", "%s: %s promoted over %s", st.name, st.liveVersion, st.prevVersion)
	return nil
}

// Rollback restores the previous live version in one step. The rolled-
// back-from version becomes the new previous, so a mistaken rollback is
// itself reversible.
func (m *Manager) Rollback(name string) error {
	st, ok := m.peek(name)
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownModel, name)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.prev == nil {
		return fmt.Errorf("%w for %s", ErrNoPrevious, name)
	}
	if m.pub != nil {
		if err := m.pub.Put(VersionedName(st.name, st.liveVersion), st.liveRaw); err != nil {
			return fmt.Errorf("lifecycle: preserving live version: %w", err)
		}
		if err := m.pub.Put(st.name, st.prevRaw); err != nil {
			return fmt.Errorf("lifecycle: publishing rollback: %w", err)
		}
	}
	st.liveVersion, st.prevVersion = st.prevVersion, st.liveVersion
	st.live, st.prev = st.prev, st.live
	st.liveRaw, st.prevRaw = st.prevRaw, st.liveRaw
	st.shadow = nil
	m.noteSwap(st.name)
	obs.Inc("lifecycle.rollback")
	obs.LogEvent("lifecycle.rollback", "%s: rolled back to %s (from %s)", st.name, st.liveVersion, st.prevVersion)
	return nil
}

// Reload re-reads the base model file and, when its content hash
// changed, installs it as the new live version (previous retained for
// rollback, shadow dropped). It returns whether the live version
// changed. A failed read or validation keeps the last-good state — the
// same contract as the registry's hot reload.
func (m *Manager) Reload(ctx context.Context, name string) (bool, error) {
	st, ok := m.peek(name)
	if !ok {
		// Never resolved: a plain resolve is the reload.
		_, err := m.state(ctx, name)
		return err == nil, err
	}
	fresh, err := m.load(ctx, name)
	if err != nil {
		return false, err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if fresh.liveVersion == st.liveVersion {
		return false, nil
	}
	st.prevVersion, st.prev, st.prevRaw = st.liveVersion, st.live, st.liveRaw
	st.liveVersion, st.live, st.liveRaw = fresh.liveVersion, fresh.live, fresh.liveRaw
	st.shadow = nil
	m.noteSwap(name)
	obs.Inc("lifecycle.reload")
	return true, nil
}

// noteSwap fires the OnSwap hook after a live-version change.
func (m *Manager) noteSwap(name string) {
	if m.opts.OnSwap != nil {
		m.opts.OnSwap(name)
	}
}

// ShadowStatus is the dark-launch telemetry exposed per model.
type ShadowStatus struct {
	Version string `json:"version"`
	// Samples is how many realized-error samples the comparison windows
	// hold (both windows fill in lockstep).
	Samples int `json:"samples"`
	// LiveWindowErr and ShadowWindowErr are the mean absolute residuals
	// of the live and shadow predictions over the comparison window.
	LiveWindowErr   float64 `json:"live_window_err"`
	ShadowWindowErr float64 `json:"shadow_window_err"`
}

// ModelStatus is one model's lifecycle view (GET /v1/models). Health is
// filled by the serving layer from the drift detector — the manager
// tracks versions, not drift.
type ModelStatus struct {
	Name            string        `json:"name"`
	LiveVersion     string        `json:"live_version"`
	PreviousVersion string        `json:"previous_version,omitempty"`
	Health          string        `json:"health"`
	Shadow          *ShadowStatus `json:"shadow,omitempty"`
}

// Models returns the names this manager has resolved successfully,
// sorted. A load still in flight is not listed.
func (m *Manager) Models() []string {
	var names []string
	for _, name := range m.group.Keys() {
		if _, ok := m.peek(name); ok {
			names = append(names, name)
		}
	}
	return names
}

// Snapshot lists every resolved model's lifecycle state, sorted by name.
func (m *Manager) Snapshot() []ModelStatus {
	names := m.Models()
	out := make([]ModelStatus, 0, len(names))
	for _, name := range names {
		st, ok := m.peek(name)
		if !ok {
			continue
		}
		st.mu.Lock()
		ms := ModelStatus{
			Name:            st.name,
			LiveVersion:     st.liveVersion,
			PreviousVersion: st.prevVersion,
		}
		if sh := st.shadow; sh != nil {
			ms.Shadow = &ShadowStatus{
				Version:         sh.version,
				Samples:         sh.shadowErr.filled,
				LiveWindowErr:   sh.liveErr.mean(),
				ShadowWindowErr: sh.shadowErr.mean(),
			}
		}
		st.mu.Unlock()
		out = append(out, ms)
	}
	return out
}
