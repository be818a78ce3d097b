package serve

// The closed-loop ("pilot") endpoints: feedback ingestion, drift
// detection, and the model-lifecycle API. The dispatch path records
// what was served (pilot-side state lives on Server: records, detector,
// flog, mgr); these handlers close the loop from realized QoS back to
// the models. The loop has one drift response: a stale model is
// retrained (retrain.go), and between retrains the proactive controller
// corrects budgets (controller.go).
//
// Determinism contract: for a fixed dispatch + feedback sequence the
// drift states, transitions, shadow versions and every response body are
// identical across runs and restarts. Nothing in this file consults a
// clock, a random source, or map iteration order on a decision path.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"opprox/internal/core"
	"opprox/internal/feedback"
	"opprox/internal/lifecycle"
	"opprox/internal/obs"
)

// dispatchID is the deterministic key feedback reports use to refer to a
// served dispatch: a content hash of the model identity, the request,
// and the schedule that was returned. encoding/json sorts map keys, so
// the params marshal canonically.
func dispatchID(dreq *DispatchRequest, version string, levels [][]int) string {
	payload, err := json.Marshal(struct {
		Model   string         `json:"model"`
		Version string         `json:"version"`
		App     string         `json:"app"`
		Budget  float64        `json:"budget"`
		Params  map[string]any `json:"params"`
		Levels  [][]int        `json:"levels"`
	}{
		Model:   dreq.ModelPath,
		Version: version,
		App:     dreq.App,
		Budget:  dreq.Budget,
		Params:  paramsCanonical(dreq),
		Levels:  levels,
	})
	if err != nil {
		// Unreachable for the field types above; a stable sentinel beats
		// a panic on a serving path.
		return "unhashable"
	}
	sum := sha256.Sum256(payload)
	return hex.EncodeToString(sum[:8])
}

func paramsCanonical(dreq *DispatchRequest) map[string]any {
	m := make(map[string]any, len(dreq.Params))
	for k, v := range dreq.Params {
		m[k] = v
	}
	return m
}

// feedbackResponse is the body of a successful POST /v1/feedback.
type feedbackResponse struct {
	// Status is "ok", or "stale_version" when the dispatch predates the
	// current live version (logged, but not drift evidence).
	Status string `json:"status"`
	Model  string `json:"model"`
	// State is the model's drift state after this report.
	State string `json:"state"`
	// Promoted reports that this feedback completed the evidence for an
	// automatic shadow promotion.
	Promoted bool `json:"promoted,omitempty"`
	// RetrainStarted reports that this feedback flipped the model to
	// stale and a background retrain was kicked off.
	RetrainStarted bool `json:"retrain_started,omitempty"`
}

func (s *Server) handleFeedback(w http.ResponseWriter, req *http.Request) {
	done := obs.Timer("serve.http.feedback")
	defer done()
	obs.Inc("serve.feedback.requests")
	if req.Method != http.MethodPost {
		writeError(w, fmt.Errorf("%w: %s not allowed on /v1/feedback", ErrBadRequest, req.Method))
		return
	}
	// Admission runs before the body is even read: a rate-limited
	// report must leave no trace — in particular it can never advance
	// the drift detector's CUSUM state (a property test pins this).
	// Feedback is charged at the ingress replica only; a forwarded
	// report was already admitted where the client sent it.
	if !forwarded(req) && !s.admit(w, clientKey(req), "/v1/feedback") {
		return
	}
	raw, err := io.ReadAll(http.MaxBytesReader(w, req.Body, maxRequestBytes))
	if err != nil {
		writeError(w, fmt.Errorf("%w: reading body: %v", ErrBadRequest, err))
		return
	}
	var report feedback.Report
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&report); err != nil {
		s.noteFailure(req)
		writeError(w, fmt.Errorf("%w: decoding body: %v", ErrBadRequest, err))
		return
	}
	rec, ok := s.records.Get(report.DispatchID)
	if !ok {
		// In a sharded fleet the record lives on the replica that served
		// the dispatch; relay the report there before declaring it unknown.
		if s.forwardFeedback(w, req, report.DispatchID, raw) {
			return
		}
		obs.Inc("serve.feedback.unknown_dispatch")
		writeError(w, fmt.Errorf("%w: dispatch %q", ErrNotFound, report.DispatchID))
		return
	}
	if err := report.Validate(rec.Phases); err != nil {
		s.noteFailure(req)
		writeError(w, fmt.Errorf("%w: %v", ErrBadRequest, err))
		return
	}

	samples := buildSamples(rec, report.Observations)
	s.logFeedback(rec, report.Observations, samples)

	resp := feedbackResponse{Status: "ok", Model: rec.Model}
	liveVer, _ := s.mgr.LiveVersion(rec.Model)
	if rec.Version != liveVer {
		// The dispatch predates a promote/rollback/reload: its residuals
		// say nothing about the current live version. Telemetry keeps the
		// entries; the detector and the shadow comparison skip them.
		obs.Inc("serve.feedback.stale_version")
		resp.Status = "stale_version"
		resp.State = s.detector.State(rec.Model).String()
		writeJSON(w, http.StatusOK, resp)
		return
	}

	state, transitions := s.detector.Observe(rec.Model, samples)
	if s.ctrl != nil {
		// Proactive control: fold the updated residual evidence into the
		// model's budget correction (controller.go).
		_, deg := s.detector.Medians(rec.Model, rec.Phases)
		s.ctrl.update(rec.Model, deg)
	}
	for _, tr := range transitions {
		if tr.To == feedback.Stale {
			// Calibration stopped tracking reality: retrain (retrain.go).
			resp.RetrainStarted = s.maybeRetrain(rec.Model)
		}
	}

	promoted, err := s.mgr.Feedback(rec, report.Observations)
	if err != nil {
		writeError(w, err)
		return
	}
	if promoted {
		// The evidence windows referred to the now-previous version.
		s.detector.Reset(rec.Model)
		if s.ctrl != nil {
			s.ctrl.reset(rec.Model)
		}
		state = s.detector.State(rec.Model)
	}
	resp.State = state.String()
	resp.Promoted = promoted
	writeJSON(w, http.StatusOK, resp)
}

// buildSamples turns realized observations into detector samples:
// residuals on the training scales and band-exceedance flags, judged
// against the predictions this dispatch was actually served under.
func buildSamples(rec *feedback.DispatchRecord, observations []feedback.PhaseObservation) []feedback.Sample {
	samples := make([]feedback.Sample, 0, len(observations))
	for _, o := range observations {
		if o.Phase < 0 || o.Phase >= len(rec.Diags) {
			continue
		}
		d := rec.Diags[o.Phase]
		realS := core.SpeedupScale(o.Speedup)
		realD := core.DegradationScale(o.Degradation)
		samples = append(samples, feedback.Sample{
			Phase:           o.Phase,
			SpeedupResidual: realS - d.SpeedupRaw,
			DegResidual:     realD - d.DegRaw,
			SpeedupExceeded: !d.SpeedupBand.Contains(d.SpeedupRaw, realS),
			DegExceeded:     !d.DegBand.Contains(d.DegRaw, realD),
		})
	}
	return samples
}

// logFeedback appends one telemetry entry per observation; a nil log is
// a no-op. Log failures are counted, never surfaced to the reporter —
// telemetry must not fail feedback.
func (s *Server) logFeedback(rec *feedback.DispatchRecord, observations []feedback.PhaseObservation, samples []feedback.Sample) {
	if s.flog == nil {
		return
	}
	byPhase := make(map[int]feedback.Sample, len(samples))
	for _, smp := range samples {
		byPhase[smp.Phase] = smp
	}
	for _, o := range observations {
		smp := byPhase[o.Phase]
		// Dispatch context rides along so the retrain extractor can
		// reconstruct training rows from the log alone, long after the
		// in-memory record is evicted.
		var levels []int
		if o.Phase >= 0 && o.Phase < len(rec.Levels) {
			levels = rec.Levels[o.Phase]
		}
		err := s.flog.Append(feedback.Entry{
			DispatchID:  rec.ID,
			Model:       rec.Model,
			Version:     rec.Version,
			App:         rec.App,
			Budget:      rec.Budget,
			Params:      rec.Params,
			Levels:      levels,
			Phase:       o.Phase,
			Speedup:     o.Speedup,
			Degradation: o.Degradation,
			SpeedupRes:  smp.SpeedupResidual,
			DegRes:      smp.DegResidual,
			SpeedupEx:   smp.SpeedupExceeded,
			DegEx:       smp.DegExceeded,
		})
		if err != nil {
			obs.Inc("serve.feedback.log_failed")
			return
		}
	}
}

// modelsResponse is the body of GET /v1/models.
type modelsResponse struct {
	Models []lifecycle.ModelStatus `json:"models"`
}

func (s *Server) handleModels(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet {
		writeError(w, fmt.Errorf("%w: %s not allowed on /v1/models", ErrBadRequest, req.Method))
		return
	}
	snap := s.mgr.Snapshot()
	for i := range snap {
		snap[i].Health = s.detector.State(snap[i].Name).String()
	}
	writeJSON(w, http.StatusOK, modelsResponse{Models: snap})
}

// modelRequest is the body of POST /v1/promote and POST /v1/rollback.
type modelRequest struct {
	Model string `json:"model"`
}

// lifecycleResult reports the versions after a promote or rollback.
type lifecycleResult struct {
	Model           string `json:"model"`
	LiveVersion     string `json:"live_version"`
	PreviousVersion string `json:"previous_version,omitempty"`
}

func (s *Server) handlePromote(w http.ResponseWriter, req *http.Request) {
	s.handleLifecycleSwap(w, req, "/v1/promote", s.mgr.Promote)
}

func (s *Server) handleRollback(w http.ResponseWriter, req *http.Request) {
	s.handleLifecycleSwap(w, req, "/v1/rollback", s.mgr.Rollback)
}

func (s *Server) handleLifecycleSwap(w http.ResponseWriter, req *http.Request, path string, op func(string) error) {
	if req.Method != http.MethodPost {
		writeError(w, fmt.Errorf("%w: %s not allowed on %s", ErrBadRequest, req.Method, path))
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
	// Lifecycle state lives on the model's owner (version-coherent
	// routing): a promote or rollback anywhere in the fleet lands on the
	// same replica every dispatch for that model is served from.
	if s.proxyToOwner(w, req, mreq.Model, path, raw) {
		return
	}
	if err := op(mreq.Model); err != nil {
		writeError(w, classifyLifecycleErr(err))
		return
	}
	// The evidence gathered so far judged the previous live version.
	s.detector.Reset(mreq.Model)
	if s.ctrl != nil {
		s.ctrl.reset(mreq.Model)
	}
	res := lifecycleResult{Model: mreq.Model}
	for _, st := range s.mgr.Snapshot() {
		if st.Name == mreq.Model {
			res.LiveVersion = st.LiveVersion
			res.PreviousVersion = st.PreviousVersion
		}
	}
	writeJSON(w, http.StatusOK, res)
}

// classifyLifecycleErr maps lifecycle errors onto the serving taxonomy:
// an unknown model is a 404 (the client named something the server never
// resolved); a missing shadow/previous version is a 400 (the operation
// cannot apply to the current state); everything else is internal.
func classifyLifecycleErr(err error) error {
	switch {
	case errors.Is(err, lifecycle.ErrUnknownModel):
		return fmt.Errorf("%w: %v", ErrNotFound, err)
	case errors.Is(err, lifecycle.ErrNoShadow), errors.Is(err, lifecycle.ErrNoPrevious):
		return fmt.Errorf("%w: %v", ErrBadRequest, err)
	default:
		return err
	}
}
