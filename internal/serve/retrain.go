package serve

// The retraining endpoint and trigger wiring. The pipeline itself lives
// in internal/retrain; this file maps it onto the HTTP API and the
// serving error taxonomy, and fires it in the background when a model's
// drift state goes stale.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"opprox/internal/lifecycle"
	"opprox/internal/obs"
	"opprox/internal/retrain"
)

// retrainResponse is the body of a successful POST /v1/retrain. Status
// is "shadow_created" when a winner was dark-launched, "no_improvement"
// when the pipeline ran to completion but no candidate beat the live
// model on the holdout (the per-candidate diagnostics say why).
type retrainResponse struct {
	Status string `json:"status"`
	*retrain.Result
}

func (s *Server) handleRetrain(w http.ResponseWriter, req *http.Request) {
	done := obs.Timer("serve.http.retrain")
	defer done()
	if req.Method != http.MethodPost {
		writeError(w, fmt.Errorf("%w: %s not allowed on /v1/retrain", ErrBadRequest, req.Method))
		return
	}
	raw, err := io.ReadAll(http.MaxBytesReader(w, req.Body, maxRequestBytes))
	if err != nil {
		writeError(w, fmt.Errorf("%w: reading body: %v", ErrBadRequest, err))
		return
	}
	var mreq modelRequest
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&mreq); err != nil {
		writeError(w, fmt.Errorf("%w: decoding body: %v", ErrBadRequest, err))
		return
	}
	if mreq.Model == "" {
		writeError(w, fmt.Errorf("%w: missing model", ErrBadRequest))
		return
	}
	// Retraining reads the owner's telemetry log and record store and
	// dark-launches into the owner's lifecycle state — same routing as
	// promote/rollback.
	if s.proxyToOwner(w, req, mreq.Model, "/v1/retrain", raw) {
		return
	}
	if s.retrainer == nil {
		writeError(w, fmt.Errorf("%w: retraining is not enabled on this server", ErrBadRequest))
		return
	}
	res, err := s.retrainer.Run(mreq.Model)
	if err != nil {
		switch {
		case errors.Is(err, retrain.ErrNoImprovement):
			// Not a failure: the pipeline ran, the live model won. The
			// caller gets the full candidate diagnostics.
			writeJSON(w, http.StatusOK, retrainResponse{Status: "no_improvement", Result: res})
		case errors.Is(err, retrain.ErrUnknownModel):
			writeError(w, fmt.Errorf("%w: %v", ErrNotFound, err))
		case errors.Is(err, retrain.ErrInsufficientData):
			writeError(w, fmt.Errorf("%w: %v", ErrBadRequest, err))
		case errors.Is(err, lifecycle.ErrIdenticalToLive):
			// A promote landed between candidate selection and the
			// dark-launch: the winner IS the live version now. Nothing to
			// evaluate — report the benign outcome.
			writeJSON(w, http.StatusOK, retrainResponse{Status: "already_live", Result: res})
		default:
			writeError(w, err)
		}
		return
	}
	writeJSON(w, http.StatusOK, retrainResponse{Status: "shadow_created", Result: res})
}

// maybeRetrain fires a background retrain when a feedback report flips
// a model's drift state to stale — calibration alone stopped tracking
// reality, which is exactly the regime retraining exists for. TryRun
// coalesces: further stale signals during a long retrain are dropped,
// not queued. A run that ships nothing (no candidate won, or too few
// rows) re-arms the detector, so persisting drift triggers another run.
// Returns whether a run was started.
func (s *Server) maybeRetrain(model string) bool {
	if s.retrainer == nil {
		return false
	}
	obs.Inc("serve.retrain.triggered")
	go func() {
		res, err := s.retrainer.TryRun(model)
		switch {
		case err == nil:
			obs.LogEvent("serve.retrain", "%s: %s -> shadow %s", model, res.Winner, res.ShadowVersion)
		case errors.Is(err, retrain.ErrRetrainInFlight):
			// Coalesced; the in-flight run covers this signal.
		case errors.Is(err, lifecycle.ErrIdenticalToLive):
			// A raced promote already installed the winner.
		default:
			if errors.Is(err, retrain.ErrNoImprovement) || errors.Is(err, retrain.ErrInsufficientData) {
				s.detector.Rearm(model)
			}
			obs.Inc("serve.retrain.failed")
			obs.LogEvent("serve.retrain", "%s: %v", model, err)
		}
	}()
	return true
}
