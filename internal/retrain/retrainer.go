package retrain

import (
	"errors"
	"fmt"
	"sync"

	"opprox/internal/obs"
)

// ModelSource supplies a model's live serialized bytes —
// *lifecycle.Manager satisfies it structurally.
type ModelSource interface {
	LiveRaw(name string) ([]byte, string, bool)
}

// Publisher dark-launches a built candidate — *lifecycle.Manager
// satisfies it structurally.
type Publisher interface {
	CreateShadowFromBytes(name string, raw []byte) (string, error)
}

// ErrUnknownModel: the named model was never resolved by the source.
var ErrUnknownModel = errors.New("retrain: unknown model")

// ErrRetrainInFlight: a retrain for the model is already running
// (TryRun only; Run waits instead).
var ErrRetrainInFlight = errors.New("retrain: retrain already in flight")

// Config wires a Retrainer into a serving process.
type Config struct {
	// LogPath is the telemetry JSONL log (the serving layer's feedback
	// log; rotated segments are replayed automatically).
	LogPath string
	// Source and Pub are both satisfied by *lifecycle.Manager.
	Source ModelSource
	Pub    Publisher
}

// Retrainer runs the extract → redetect → retrain → shadow pipeline for
// a serving process. Runs for the same model are serialized (the log
// replay and CV fits are CPU-heavy; racing them buys nothing), while
// different models retrain independently.
type Retrainer struct {
	cfg Config

	mu      sync.Mutex
	byModel map[string]*modelRun
}

// modelRun is the per-model serialization state.
type modelRun struct {
	mu      sync.Mutex
	running bool
}

// NewRetrainer validates the wiring and builds a Retrainer.
func NewRetrainer(cfg Config) (*Retrainer, error) {
	if cfg.LogPath == "" {
		return nil, errors.New("retrain: Config.LogPath is required")
	}
	if cfg.Source == nil || cfg.Pub == nil {
		return nil, errors.New("retrain: Config.Source and Config.Pub are required")
	}
	return &Retrainer{cfg: cfg, byModel: make(map[string]*modelRun)}, nil
}

func (r *Retrainer) run(model string) *modelRun {
	r.mu.Lock()
	defer r.mu.Unlock()
	mr := r.byModel[model]
	if mr == nil {
		mr = &modelRun{}
		r.byModel[model] = mr
	}
	return mr
}

// Run executes one full retrain for a model, blocking until any
// in-flight run for the same model finishes first (POST /v1/retrain is
// synchronous: the caller gets the winner, the per-candidate holdout
// errors, and the dark-launched shadow version). On ErrNoImprovement
// the returned Result still carries the candidate diagnostics.
func (r *Retrainer) Run(model string) (*Result, error) {
	mr := r.run(model)
	mr.mu.Lock()
	defer mr.mu.Unlock()
	return r.runLocked(model)
}

// TryRun is Run unless a retrain for the model is already in flight, in
// which case it returns ErrRetrainInFlight immediately — the background
// trigger path, where a second drift signal during a long retrain
// should coalesce, not queue.
func (r *Retrainer) TryRun(model string) (*Result, error) {
	mr := r.run(model)
	if !mr.mu.TryLock() {
		obs.Inc("retrain.coalesced")
		return nil, fmt.Errorf("%w: %s", ErrRetrainInFlight, model)
	}
	defer mr.mu.Unlock()
	return r.runLocked(model)
}

func (r *Retrainer) runLocked(model string) (*Result, error) {
	raw, _, ok := r.cfg.Source.LiveRaw(model)
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownModel, model)
	}
	m, err := Extract(r.cfg.LogPath, ExtractOptions{Model: model})
	if err != nil {
		return nil, err
	}
	res, err := Retrain(raw, m)
	if err != nil {
		return res, err
	}
	ver, err := r.cfg.Pub.CreateShadowFromBytes(model, res.Raw)
	if err != nil {
		return res, fmt.Errorf("retrain: dark-launching %s: %w", res.Version, err)
	}
	res.ShadowVersion = ver
	obs.Inc("retrain.shadows")
	return res, nil
}
