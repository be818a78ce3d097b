// Package serve is the long-running half of the paper's deployment flow
// (§4.2): where cmd/opprox-launch is the one-shot "runtime script" that
// loads models and prints environment assignments for a single job,
// opprox-serve keeps the models resident and answers dispatch requests
// over HTTP/JSON.
//
// The serving contract, in order of importance:
//
//  1. Never corrupt a job. Malformed requests, missing models and
//     corrupt model files produce classified errors or an explicitly
//     degraded all-accurate schedule — never a panic, never a silently
//     wrong schedule (the launch-layer env-key collision check and the
//     persist-layer band validation run on every load).
//  2. Degrade, don't fail. When the models for a job cannot be loaded,
//     a non-strict dispatch returns the all-accurate schedule (speedup
//     1, degradation 0) with "degraded": true, so the job still runs —
//     exactly, just without approximation. Strict requests surface the
//     error instead.
//  3. Stay deterministic. For a given (model file, params, budget) the
//     response body is byte-identical across requests, concurrent
//     clients and server restarts. Anything that varies run to run
//     (optimization wall time, cache state) is excluded from response
//     bodies and reported through /metricsz instead.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"time"

	"opprox/internal/admission"
	"opprox/internal/approx"
	"opprox/internal/core"
	"opprox/internal/feedback"
	"opprox/internal/launch"
	"opprox/internal/lifecycle"
	"opprox/internal/obs"
	"opprox/internal/qos"
	"opprox/internal/retrain"
)

// DefaultTimeout bounds one dispatch request end to end (model load,
// including retries, plus optimization).
const DefaultTimeout = 10 * time.Second

// maxRequestBytes bounds a request body; job configurations are small.
const maxRequestBytes = 1 << 20

// Options configures a Server.
type Options struct {
	// Store is where model files are read from. A store that also
	// implements Put (FileStore does) lets the lifecycle layer persist
	// shadow and promoted versions; a read-only store keeps them in
	// memory only.
	Store Store
	// Timeout is the per-request budget (default DefaultTimeout).
	Timeout time.Duration
	// Registry tunes model loading (retry count, backoff base).
	Registry RegistryOptions
	// Lifecycle tunes the shadow/promotion manager (auto-promotion, the
	// swap hook).
	Lifecycle lifecycle.Options
	// FeedbackLog, when non-nil, receives every accepted feedback
	// observation as an append-only JSONL entry (see feedback.OpenLogOptions).
	FeedbackLog *feedback.Log
	// PlanCacheCap bounds the dispatch-plan cache (0: DefaultPlanCacheCap;
	// negative: disable caching — every dispatch recomputes).
	PlanCacheCap int
	// Admission configures ingress rate limiting (per-client and global
	// token buckets, invalid-body lockout) on /v1/dispatch and
	// /v1/feedback. Nil disables rate limiting entirely; the in-flight
	// gate and degradation ladder run regardless.
	Admission *admission.Options
	// MaxInFlight caps concurrent dispatch computations (and is the
	// ladder's load gauge). Zero or negative: DefaultMaxInFlight.
	MaxInFlight int
	// Retrain enables the online retraining pipeline: POST /v1/retrain
	// runs it synchronously, and a model flipping to stale triggers a
	// background run. Requires FeedbackLog (the pipeline replays it).
	Retrain bool
	// Proactive enables the Capri-style proactive controller: between
	// retrains the confidence-banded model runs open-loop, and observed
	// degradation residuals feed back as a budget correction on
	// subsequent dispatches (see controller.go, DESIGN.md §16).
	Proactive bool
}

// Server answers dispatch requests against a model registry. Create with
// New; serve its Handler.
type Server struct {
	timeout time.Duration

	// Closed-loop state: dispatch records awaiting feedback, the drift
	// detector, the telemetry log and the model-lifecycle manager.
	records   *feedback.Records
	detector  *feedback.Detector
	flog      *feedback.Log
	mgr       *lifecycle.Manager
	retrainer *retrain.Retrainer
	ctrl      *controller

	// Dispatch acceleration: the plan cache answers repeat dispatches
	// from cached bytes, transparently — see DESIGN.md §12.
	plans *planCache

	// Admission control: the rate limiter (nil when disabled), the
	// in-flight computation gate, the degradation ladder, and the
	// recent-timeout window feeding its pressure signal. See
	// admission.go and DESIGN.md §15.
	limiter  *admission.Limiter
	gate     *admission.Gate
	ladder   *qos.Ladder
	timeouts *qos.RateWindow

	// cluster is non-nil when this server is one replica of a sharded
	// fleet (ConfigureCluster); nil serves standalone.
	cluster *cluster
}

// New builds a Server over a model store.
func New(opts Options) *Server {
	if opts.Timeout <= 0 {
		opts.Timeout = DefaultTimeout
	}
	if opts.Store == nil {
		opts.Store = FileStore{}
	}
	reg := NewRegistry(opts.Store, opts.Registry)
	var pub lifecycle.Publisher
	if p, ok := opts.Store.(lifecycle.Publisher); ok {
		pub = p
	}
	if opts.MaxInFlight <= 0 {
		opts.MaxInFlight = DefaultMaxInFlight
	}
	s := &Server{
		timeout:  opts.Timeout,
		records:  feedback.NewRecords(feedback.DefaultRecordCap),
		detector: feedback.NewDetector(feedback.Options{}),
		flog:     opts.FeedbackLog,
		plans:    newPlanCache(opts.PlanCacheCap),
		gate:     admission.NewGate(opts.MaxInFlight),
		ladder:   qos.NewLadder(),
		timeouts: qos.NewRateWindow(0, 0),
	}
	if opts.Admission != nil {
		s.limiter = admission.NewLimiter(*opts.Admission)
	}
	// Every live-version swap (promote/rollback/reload) drops the old
	// version's cached plans; a caller-provided hook still runs after.
	lcOpts := opts.Lifecycle
	callerSwap := lcOpts.OnSwap
	lcOpts.OnSwap = func(name string) {
		s.plans.invalidateModel(name)
		if callerSwap != nil {
			callerSwap(name)
		}
	}
	s.mgr = lifecycle.NewManager(reg, pub, lcOpts)
	if opts.Proactive {
		s.ctrl = newController()
	}
	if opts.Retrain && opts.FeedbackLog != nil {
		rt, err := retrain.NewRetrainer(retrain.Config{
			LogPath: opts.FeedbackLog.Path(),
			Source:  s.mgr,
			Pub:     s.mgr,
		})
		if err != nil {
			panic(err) // both halves are wired above; failure is a programming error
		}
		s.retrainer = rt
	}
	return s
}

// Lifecycle exposes the model-lifecycle manager (tests).
func (s *Server) Lifecycle() *lifecycle.Manager { return s.mgr }

// Handler returns the HTTP API:
//
//	POST /v1/dispatch  one job dispatch (DispatchRequest -> DispatchResponse)
//	POST /v1/feedback  realized per-phase QoS for a served dispatch
//	GET  /v1/models    lifecycle view: versions, health, shadow telemetry
//	POST /v1/promote   make a model's shadow version live
//	POST /v1/rollback  restore a model's previous live version
//	POST /v1/retrain   synchronous telemetry retrain; winner dark-launched as shadow
//	POST /v1/reload    hot-reload resolved models, last-good on failure
//	GET  /v1/cluster   shard topology: replicas + model ownership
//	GET  /v1/admission admission/ladder state (POST {"force_step": N} pins it)
//	GET  /healthz      liveness + resolved-model count
//	GET  /metricsz     obs.Default JSON snapshot
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/dispatch", s.handleDispatch)
	mux.HandleFunc("/v1/feedback", s.handleFeedback)
	mux.HandleFunc("/v1/models", s.handleModels)
	mux.HandleFunc("/v1/promote", s.handlePromote)
	mux.HandleFunc("/v1/rollback", s.handleRollback)
	mux.HandleFunc("/v1/retrain", s.handleRetrain)
	mux.HandleFunc("/v1/reload", s.handleReload)
	mux.HandleFunc("/v1/cluster", s.handleCluster)
	mux.HandleFunc("/v1/admission", s.handleAdmission)
	mux.HandleFunc("/healthz", s.handleHealth)
	mux.HandleFunc("/metricsz", s.handleMetrics)
	return mux
}

// DispatchRequest is the body of POST /v1/dispatch. It embeds the job
// configuration file format (launch.JobConfig) unchanged — "model_path"
// names a file inside the server's store — plus serving-only fields.
type DispatchRequest struct {
	launch.JobConfig
	// Strict surfaces model-unavailable errors instead of degrading to
	// the all-accurate schedule.
	Strict bool `json:"strict,omitempty"`
}

// DispatchResponse is the body of a successful dispatch. It contains no
// wall-clock or cache-state fields: the same (model file, params,
// budget) must produce byte-identical bodies on every request.
type DispatchResponse struct {
	App    string  `json:"app"`
	Budget float64 `json:"budget"`
	// Phases and Levels are the chosen schedule; Levels[p][b] is block
	// b's approximation level during phase p.
	Phases int     `json:"phases"`
	Levels [][]int `json:"levels"`
	// Env is the schedule rendered as the environment assignments the
	// job should be launched with.
	Env []string `json:"env"`
	// Speedup and Degradation are the model's conservative predictions
	// (1 and 0 on the degraded path: the job runs exactly).
	Speedup     float64 `json:"predicted_speedup"`
	Degradation float64 `json:"predicted_degradation"`
	// Degraded marks an all-accurate fallback schedule returned because
	// the models were unavailable; Reason says why.
	Degraded bool   `json:"degraded"`
	Reason   string `json:"degraded_reason,omitempty"`
	// DispatchID keys later feedback (POST /v1/feedback) back to this
	// dispatch. It is a content hash of (model, version, request,
	// schedule) — deterministic, no clocks or randomness — so identical
	// requests share an ID by construction. Empty on the degraded path:
	// there is no model prediction to give feedback on.
	DispatchID string `json:"dispatch_id,omitempty"`
	// ModelVersion is the content-hash version of the model file that
	// produced the schedule.
	ModelVersion string `json:"model_version,omitempty"`
	// PhasePredictions mirror Levels phase by phase: the model's
	// predicted speedup and degradation for each served phase — the
	// baseline a client's realized per-phase feedback is judged against.
	PhasePredictions []PhasePrediction `json:"phase_predictions,omitempty"`
}

// PhasePrediction is one phase's predicted speedup and QoS degradation.
type PhasePrediction struct {
	Speedup     float64 `json:"speedup"`
	Degradation float64 `json:"degradation"`
}

// errorBody is the JSON shape of every non-2xx response.
type errorBody struct {
	Error  string `json:"error"`
	Detail string `json:"detail"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	b, err := marshalBody(v)
	if err != nil {
		http.Error(w, `{"error":"internal","detail":"encoding response"}`, http.StatusInternalServerError)
		return
	}
	writeBody(w, status, b)
}

// marshalBody renders the canonical wire form of a response value — the
// same bytes whether they are written directly, cached, or replayed.
func marshalBody(v any) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("encoding response: %w", err)
	}
	return append(b, '\n'), nil
}

// saturate maps ±Inf to ±MaxFloat64, which encoding/json can encode,
// and passes every finite value through bit for bit. Phase predictions
// are exponentials of calibrated raw values, and recalibrations add up
// their (finite) shifts, so a raw value past ~709 overflows.
func saturate(v float64) float64 {
	return math.Max(-math.MaxFloat64, math.Min(math.MaxFloat64, v))
}

func writeBody(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body)
}

func writeError(w http.ResponseWriter, err error) {
	obs.Inc("serve.http.error." + errCode(err))
	writeJSON(w, httpStatus(err), errorBody{Error: errCode(err), Detail: err.Error()})
}

func (s *Server) handleDispatch(w http.ResponseWriter, req *http.Request) {
	done := obs.Timer("serve.http.dispatch")
	defer done()
	obs.Inc("serve.dispatch.requests")
	if req.Method != http.MethodPost {
		writeError(w, fmt.Errorf("%w: %s not allowed on /v1/dispatch", ErrBadRequest, req.Method))
		return
	}
	// Locked-out clients are rejected at the ingress replica, before
	// any body work or proxy hop; the lockout check charges no tokens,
	// so it cannot double-count with the owner's Allow below.
	client := clientKey(req)
	if !forwarded(req) && s.rejectLockedOut(w, client) {
		return
	}
	// The raw body is retained so a sharded proxy hop forwards it
	// verbatim — re-marshaling could reorder fields and break the
	// byte-identity contract across replicas.
	raw, err := io.ReadAll(http.MaxBytesReader(w, req.Body, maxRequestBytes))
	if err != nil {
		writeError(w, fmt.Errorf("%w: reading body: %v", ErrBadRequest, err))
		return
	}
	var dreq DispatchRequest
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&dreq); err != nil {
		s.noteFailure(req)
		writeError(w, fmt.Errorf("%w: decoding body: %v", ErrBadRequest, err))
		return
	}
	if err := dreq.Validate(); err != nil {
		s.noteFailure(req)
		writeError(w, fmt.Errorf("%w: %v", ErrBadRequest, err))
		return
	}
	if s.proxyToOwner(w, req, dreq.ModelPath, "/v1/dispatch", raw) {
		return
	}
	// Rate limits are charged here, at the replica that owns the model
	// (the ingress forwards the client identity in clientHeader), so a
	// proxied request is counted exactly once.
	if !s.admit(w, client, "/v1/dispatch") {
		return
	}
	// Proactive correction (controller.go): the request proceeds with a
	// tightened budget, and the response body is exactly the full body of
	// the corrected request — the same idiom as the coarse ladder rung.
	if s.ctrl != nil {
		if corr := s.ctrl.correction(dreq.ModelPath); corr > 0 {
			obs.Inc("serve.controller.corrected")
			w.Header().Set(correctionHeader, formatCorrection(corr))
			dreq.Budget = correctedBudget(dreq.Budget, corr)
			w.Header().Set(correctedBudgetHeader, formatCorrection(dreq.Budget))
		}
	}

	ctx, cancel := context.WithTimeout(req.Context(), s.timeout)
	defer cancel()
	body, degraded, rung, err := s.dispatch(ctx, &dreq)
	if rung != "" {
		w.Header().Set(rungHeader, rung)
	}
	if err != nil {
		if errors.Is(err, ErrOverCapacity) {
			setRetryAfter(w, rejectRetryAfter)
		}
		writeError(w, err)
		return
	}
	if degraded {
		obs.Inc("serve.dispatch.degraded")
	}
	writeBody(w, http.StatusOK, body)
}

// dispatch serves one request at the degradation ladder's current step
// (admission.go has the rung taxonomy; DESIGN.md §15 the invariants).
// Plan-cache hits are served at every step — they are the cheapest
// possible answer and already byte-identical to fresh computation
// (D10) — so degradation only changes what happens on a miss.
func (s *Server) dispatch(ctx context.Context, dreq *DispatchRequest) (body []byte, degraded bool, rung string, err error) {
	step := s.ladderStep()
	if step == 0 {
		body, degraded, err = s.computeDispatch(ctx, dreq)
		return body, degraded, rungFull, err
	}

	obs.Inc("serve.ladder.degraded")
	if body := s.cachedBody(dreq); body != nil {
		obs.Inc("serve.ladder.rung.cached")
		return body, false, rungCached, nil
	}
	// Coarse fallback: the same request with its budget quantized down
	// onto the coarse grid. The coarse body is exactly the full body of
	// the quantized request — deterministic (D13) and shared across
	// every budget in the same quantum, which is what sheds load.
	coarse := *dreq
	coarse.Budget = quantizeBudget(dreq.Budget)
	if coarse.Budget != dreq.Budget {
		if body := s.cachedBody(&coarse); body != nil {
			obs.Inc("serve.ladder.rung.coarse")
			return body, false, rungCoarse, nil
		}
	}
	switch step {
	case 1:
		obs.Inc("serve.ladder.rung.coarse")
		body, degraded, err = s.computeDispatch(ctx, &coarse)
		return body, degraded, rungCoarse, err
	case 2:
		obs.Inc("serve.ladder.rung.exact")
		body, err = accurateBody(dreq, overloadReason)
		return body, err == nil, rungExact, err
	default:
		obs.Inc("serve.ladder.rung.reject")
		return nil, false, rungReject,
			fmt.Errorf("%w: degradation ladder step %d sheds uncached dispatches", ErrOverCapacity, step)
	}
}

// cachedBody returns the cached response bytes for dreq against the
// current live version (re-arming the feedback loop exactly like the
// dispatchBody fast path), or nil on a miss.
func (s *Server) cachedBody(dreq *DispatchRequest) []byte {
	ver, ok := s.mgr.LiveVersion(dreq.ModelPath)
	if !ok {
		return nil
	}
	kb := planKeyPool.Get().(*planKey)
	appendPlanKey(kb, dreq, ver)
	e := s.plans.get(kb.buf)
	kb.release()
	if e == nil {
		return nil
	}
	s.records.Put(e.rec)
	return e.body
}

// computeDispatch runs dispatchBody under the in-flight gate, on the
// request's own goroutine. A request gives up waiting for a gate slot or
// a model load at its deadline; once its model is resolved it runs
// Optimize to completion, and if the deadline passed before the body was
// ready it answers 504 (the body still enters the plan cache). Timed-out
// and completed requests feed the timeout window the ladder reads as
// pressure.
func (s *Server) computeDispatch(ctx context.Context, dreq *DispatchRequest) ([]byte, bool, error) {
	if err := s.gate.Acquire(ctx); err != nil {
		obs.Inc("serve.dispatch.queue_timeout")
		obs.Inc("serve.dispatch.timeout")
		s.timeouts.Observe(true)
		return nil, false, err
	}
	defer s.gate.Release()
	body, degraded, err := s.dispatchBody(ctx, dreq)
	if ctx.Err() != nil {
		obs.Inc("serve.dispatch.timeout")
		s.timeouts.Observe(true)
		return nil, false, ctx.Err()
	}
	s.timeouts.Observe(false)
	return body, degraded, err
}

// dispatchBody produces the serialized response for one dispatch.
//
// Fast path: if the model is already resolved, the plan-cache key is
// built into pooled scratch and looked up — a hit returns the cached
// bytes with zero heap allocations (a test pins this). Miss path: the
// live model is resolved (possibly degrading), the plan is computed
// against that pinned version, and the result lands in the plan cache.
func (s *Server) dispatchBody(ctx context.Context, dreq *DispatchRequest) (body []byte, degraded bool, err error) {
	// Re-arming the feedback loop on a hit (records.Put) happens inside
	// cachedBody: the record may have been evicted from the FIFO store
	// since the plan was cached.
	if body := s.cachedBody(dreq); body != nil {
		return body, false, nil
	}

	tr, ver, err := s.liveModel(ctx, dreq.ModelPath)
	if err != nil {
		if dreq.Strict || !errors.Is(err, ErrModelUnavailable) {
			return nil, false, err
		}
		// Degradation contract: the job still launches, with the
		// all-accurate schedule.
		body, err = accurateBody(dreq, err.Error())
		if err != nil {
			return nil, false, err
		}
		return body, true, nil
	}
	if err := ctx.Err(); err != nil {
		// The request already timed out or hung up: shed the work
		// instead of optimizing for nobody.
		obs.Inc("serve.dispatch.shed")
		return nil, false, err
	}
	body, err = s.computePlan(dreq, tr, ver)
	return body, false, err
}

// computePlan optimizes one dispatch against its pinned model version,
// records it for the feedback loop, serializes the response, and
// installs the bytes in the plan cache under that version's key, so a
// promote landing mid-computation can never mix versions within one
// response.
func (s *Server) computePlan(dreq *DispatchRequest, tr *core.Trained, ver string) ([]byte, error) {
	plan, err := launch.DispatchTrained(&dreq.JobConfig, tr)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrOptimize, err)
	}
	levels := make([][]int, plan.Schedule.Phases)
	for ph, cfg := range plan.Schedule.Levels {
		levels[ph] = append([]int{}, cfg...)
	}

	// Record the dispatch for the feedback loop: its deterministic ID
	// plus the raw predictions and confidence bands each phase was served
	// under (the exceedance baseline for the drift detector).
	diags := make([]core.PhaseDiag, len(levels))
	preds := make([]PhasePrediction, len(levels))
	for ph := range levels {
		diags[ph], err = tr.DiagnosePhase(dreq.Params, ph, approx.Config(levels[ph]))
		if err != nil {
			return nil, fmt.Errorf("%w: diagnosing served schedule: %v", ErrOptimize, err)
		}
		preds[ph] = PhasePrediction{
			Speedup:     saturate(core.SpeedupFromScale(diags[ph].SpeedupRaw)),
			Degradation: saturate(core.DegradationFromScale(diags[ph].DegRaw)),
		}
	}
	id := dispatchID(dreq, ver, levels)
	rec := &feedback.DispatchRecord{
		ID:      id,
		Model:   dreq.ModelPath,
		Version: ver,
		App:     dreq.App,
		Budget:  dreq.Budget,
		Params:  dreq.Params,
		Phases:  len(levels),
		Levels:  levels,
		Diags:   diags,
	}
	s.records.Put(rec)

	body, err := marshalBody(&DispatchResponse{
		App:              dreq.App,
		Budget:           dreq.Budget,
		Phases:           plan.Schedule.Phases,
		Levels:           levels,
		Env:              plan.Env,
		Speedup:          plan.Pred.Speedup,
		Degradation:      plan.Pred.Degradation,
		DispatchID:       id,
		ModelVersion:     ver,
		PhasePredictions: preds,
	})
	if err != nil {
		return nil, err
	}
	// Only now, with the exact bytes a cold request just received, does
	// the plan enter the cache — a hit replays these bytes verbatim, so
	// cache transparency (invariant D10) holds by construction.
	kb := planKeyPool.Get().(*planKey)
	appendPlanKey(kb, dreq, ver)
	s.plans.put(string(kb.buf), dreq.ModelPath, body, rec)
	kb.release()
	return body, nil
}

// accurateBody is the all-accurate fallback schedule, the one body both
// degraded paths serve: a model-unavailable dispatch (reason: the load
// error) and ladder step 2 (reason: overloadReason). OPPROX_PHASES=1 and
// no per-block variables decodes (launch.DecodeEnv) to level 0
// everywhere for any block set, so the fallback needs no model
// knowledge. Never cached and never recorded for feedback: the body
// embeds its reason, and there is no model prediction to report on.
func accurateBody(dreq *DispatchRequest, reason string) ([]byte, error) {
	return marshalBody(&DispatchResponse{
		App:      dreq.App,
		Budget:   dreq.Budget,
		Phases:   1,
		Levels:   [][]int{{}},
		Env:      []string{"OPPROX_PHASES=1"},
		Speedup:  1,
		Degraded: true,
		Reason:   reason,
	})
}

// liveModel resolves the live version of a model through the lifecycle
// manager, the one model cache. Load and validation failures classify
// as ErrModelUnavailable — same contract as the registry — while
// context errors pass through for the 504 path.
func (s *Server) liveModel(ctx context.Context, name string) (*core.Trained, string, error) {
	tr, ver, err := s.mgr.Live(ctx, name)
	if err != nil {
		if errors.Is(err, ErrModelUnavailable) ||
			errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			return nil, "", err
		}
		return nil, "", fmt.Errorf("%w: %v", ErrModelUnavailable, err)
	}
	return tr, ver, nil
}

// reloadRequest is the body of POST /v1/reload. An empty body (or empty
// model) reloads every resolved model.
type reloadRequest struct {
	Model string `json:"model,omitempty"`
}

// reloadResponse reports per-model reload outcomes. Failed models keep
// serving their last-good set.
type reloadResponse struct {
	Reloaded []string          `json:"reloaded"`
	Failed   map[string]string `json:"failed,omitempty"`
}

func (s *Server) handleReload(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		writeError(w, fmt.Errorf("%w: %s not allowed on /v1/reload", ErrBadRequest, req.Method))
		return
	}
	raw, err := io.ReadAll(http.MaxBytesReader(w, req.Body, maxRequestBytes))
	if err != nil {
		writeError(w, fmt.Errorf("%w: reading body: %v", ErrBadRequest, err))
		return
	}
	var rreq reloadRequest
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rreq); err != nil && !errors.Is(err, io.EOF) {
		writeError(w, fmt.Errorf("%w: decoding body: %v", ErrBadRequest, err))
		return
	}
	// A model-specific reload routes to the model's owner; an empty
	// reload is per-replica (each replica refreshes its own shard).
	if s.proxyToOwner(w, req, rreq.Model, "/v1/reload", raw) {
		return
	}
	names := s.mgr.Models()
	if rreq.Model != "" {
		names = []string{rreq.Model}
	}
	ctx, cancel := context.WithTimeout(req.Context(), s.timeout)
	defer cancel()
	resp := reloadResponse{Reloaded: []string{}}
	for _, name := range names {
		changed, err := s.mgr.Reload(ctx, name)
		if err != nil {
			if resp.Failed == nil {
				resp.Failed = map[string]string{}
			}
			resp.Failed[name] = err.Error()
			continue
		}
		if changed {
			// A new live version invalidates the drift evidence gathered
			// against the old one.
			s.detector.Reset(name)
			if s.ctrl != nil {
				s.ctrl.reset(name)
			}
		}
		resp.Reloaded = append(resp.Reloaded, name)
	}
	sort.Strings(resp.Reloaded)
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleHealth(w http.ResponseWriter, req *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status": "ok",
		"models": len(s.mgr.Models()),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, req *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if err := obs.Default.WriteJSON(w); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
