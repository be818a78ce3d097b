package serve

// Admission control and load-adaptive degradation (ISSUE 9, DESIGN.md
// §15). Two layers front the dispatch and feedback endpoints:
//
//   - The admission.Limiter decides *whether* a request is served at
//     all: per-client and global token buckets plus a failure lockout
//     for clients that keep sending invalid bodies. In a sharded fleet
//     the token charge happens exactly once, at the replica that owns
//     the request's model: the ingress hop checks only the (free)
//     lockout and forwards the client identity in clientHeader, so a
//     proxied request is never double-counted.
//
//   - The qos.Ladder decides *how* a request is served: under load
//     pressure — in-flight and queued computations against the
//     admission gate, plus the recent timeout fraction — dispatch
//     falls down a degradation ladder instead of timing out:
//
//       step 0  rung "full"/"cached": compute fresh plans (cache hits
//               served as always)
//       step 1  rung "coarse": serve cache hits; compute misses with
//               the budget quantized down onto the coarseQuantum grid,
//               so distinct budgets collapse onto shared plans
//       step 2  rung "exact": serve cache hits; answer misses with
//               the deterministic all-accurate overload schedule
//       step 3  rung "reject": serve cache hits; 429 + Retry-After
//               for everything else
//
//     Every rung's body is byte-deterministic for a given (model
//     version, request, rung) — invariant D13: cached bytes are the
//     full path's bytes (D10), a coarse body is exactly the full body
//     of the quantized request, and the overload fallback is a
//     constant-reason all-accurate schedule. The rung is reported in
//     the rungHeader response header, never in the body, so cache
//     entries stay shared between rungs.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strconv"
	"time"

	"opprox/internal/obs"
)

// clientHeader names the real client across the shard proxy hop (and
// lets a trusted fronting proxy forward the original client identity).
// Absent, the remote address's host identifies the client.
const clientHeader = "X-Opprox-Client"

// rungHeader reports which ladder rung served a dispatch. A header —
// not a body field — so response bodies stay byte-identical across
// rungs that serve the same bytes.
const rungHeader = "X-Opprox-Rung"

// Ladder rungs (rungHeader values).
const (
	rungFull   = "full"
	rungCached = "cached"
	rungCoarse = "coarse"
	rungExact  = "exact"
	rungReject = "reject"
)

// DefaultMaxInFlight caps concurrent dispatch computations when
// Options.MaxInFlight is not positive. Generous: the ladder engages at
// half occupancy, and the cap's job is bounding concurrent work under a
// burst, not steady-state throughput.
const DefaultMaxInFlight = 256

// coarseQuantum is the budget grid of ladder step 1: budgets are
// rounded *down* to a multiple of this (never spending more error
// budget than the client allowed), so a continuum of client budgets
// collapses onto a few shared plan-cache entries.
const coarseQuantum = 5.0

// timeoutPressureWeight scales the recent timeout fraction into the
// pressure signal: at 2/3 of requests timing out, pressure saturates
// the top ladder threshold even if the gate looks idle.
const timeoutPressureWeight = 1.5

// rejectRetryAfter is the Retry-After hint on ladder-reject (step 3)
// responses; limiter rejections carry the limiter's own estimate.
const rejectRetryAfter = time.Second

// overloadReason is the constant degraded_reason of the ladder's
// "exact" rung. Constant by design: the step-2 fallback body must be a
// pure function of the request (invariant D13), unlike the
// model-unavailable degraded path whose reason carries the load error.
const overloadReason = "overload: all-accurate schedule served at ladder step 2"

// clientKey identifies the client a request should be accounted to.
func clientKey(req *http.Request) string {
	if c := req.Header.Get(clientHeader); c != "" {
		return c
	}
	host, _, err := net.SplitHostPort(req.RemoteAddr)
	if err != nil {
		return req.RemoteAddr
	}
	return host
}

// forwarded reports whether the request already made its one shard
// proxy hop (admission was decided at the ingress replica).
func forwarded(req *http.Request) bool {
	return req.Header.Get(forwardHeader) != ""
}

// setRetryAfter sets the Retry-After header (whole seconds, rounded
// up, minimum 1).
func setRetryAfter(w http.ResponseWriter, d time.Duration) {
	secs := int64((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
}

// admit charges the limiter for one request from client and writes the
// 429 when it is rejected. Reports whether the request may proceed.
func (s *Server) admit(w http.ResponseWriter, client, endpoint string) bool {
	if s.limiter == nil {
		return true
	}
	d := s.limiter.Allow(client)
	if d.OK {
		return true
	}
	obs.Inc("serve.admission.rejected." + d.Reason)
	setRetryAfter(w, d.RetryAfter)
	writeError(w, fmt.Errorf("%w: %s (%s)", ErrOverCapacity, d.Reason, endpoint))
	return false
}

// rejectLockedOut rejects a locked-out client at the ingress replica
// before the proxy hop — a lockout check is free (no token charge), so
// it cannot double-count against the owner's Allow. Reports whether
// the rejection was written.
func (s *Server) rejectLockedOut(w http.ResponseWriter, client string) bool {
	if s.limiter == nil {
		return false
	}
	locked, left := s.limiter.LockedOut(client)
	if !locked {
		return false
	}
	obs.Inc("serve.admission.rejected.locked_out")
	setRetryAfter(w, left)
	writeError(w, fmt.Errorf("%w: locked_out", ErrOverCapacity))
	return true
}

// noteFailure charges one invalid-body strike against the client.
// Ingress-only: a forwarded request was already validated (and, if
// invalid, charged) at the replica the client actually contacted.
func (s *Server) noteFailure(req *http.Request) {
	if s.limiter == nil || forwarded(req) {
		return
	}
	obs.Inc("serve.admission.failure_noted")
	s.limiter.NoteFailure(clientKey(req))
}

// pressure is the load scalar the ladder steers by: the worst of gate
// occupancy, gate queue occupancy, and the (weighted) recent timeout
// fraction. In [0, ~1.5]; the default ladder enters step 1 at 0.5.
func (s *Server) pressure() float64 {
	p := s.timeouts.Rate() * timeoutPressureWeight
	c := float64(s.gate.Cap())
	if u := float64(s.gate.InFlight()) / c; u > p {
		p = u
	}
	if qw := float64(s.gate.Waiting()) / c; qw > p {
		p = qw
	}
	return p
}

// ladderStep feeds one pressure observation and returns the step this
// request serves at.
func (s *Server) ladderStep() int {
	return s.ladder.Update(s.pressure())
}

// quantizeBudget rounds budget down onto the coarseQuantum grid. Down,
// never up: a coarse plan may be more conservative than asked, never
// spend more error budget than the client allowed.
func quantizeBudget(budget float64) float64 {
	if budget <= 0 {
		return budget
	}
	return math.Floor(budget/coarseQuantum) * coarseQuantum
}

// admissionState is the body of GET/POST /v1/admission: the live
// admission-control and ladder view of *this* replica (degradation is
// per-replica load state; it deliberately survives promote/rollback,
// which swap model versions, not load).
type admissionState struct {
	LadderStep int `json:"ladder_step"`
	// ForcedStep is the operator override, -1 when the controller is
	// in charge.
	ForcedStep  int     `json:"forced_step"`
	Pressure    float64 `json:"pressure"`
	InFlight    int     `json:"in_flight"`
	Waiting     int     `json:"waiting"`
	InFlightCap int     `json:"in_flight_cap"`
	TimeoutRate float64 `json:"timeout_rate"`
	RateLimited bool    `json:"rate_limited"`
	Clients     int     `json:"clients"`
}

// admissionRequest is the body of POST /v1/admission.
type admissionRequest struct {
	// ForceStep pins the ladder to a step (0..qos.LadderSteps); -1
	// returns control to the load controller. The ops override, and
	// the hook the overload smoke drill walks the rungs with.
	ForceStep int `json:"force_step"`
}

func (s *Server) handleAdmission(w http.ResponseWriter, req *http.Request) {
	switch req.Method {
	case http.MethodGet:
		// fallthrough to the state snapshot below
	case http.MethodPost:
		raw, err := io.ReadAll(http.MaxBytesReader(w, req.Body, maxRequestBytes))
		if err != nil {
			writeError(w, fmt.Errorf("%w: reading body: %v", ErrBadRequest, err))
			return
		}
		areq := admissionRequest{ForceStep: -1}
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&areq); err != nil && !errors.Is(err, io.EOF) {
			writeError(w, fmt.Errorf("%w: decoding body: %v", ErrBadRequest, err))
			return
		}
		if err := s.ladder.Force(areq.ForceStep); err != nil {
			writeError(w, fmt.Errorf("%w: %v", ErrBadRequest, err))
			return
		}
		obs.Inc("serve.ladder.forced")
	default:
		writeError(w, fmt.Errorf("%w: %s not allowed on /v1/admission", ErrBadRequest, req.Method))
		return
	}
	st := admissionState{
		LadderStep:  s.ladder.Step(),
		ForcedStep:  s.ladder.Forced(),
		Pressure:    s.pressure(),
		TimeoutRate: s.timeouts.Rate(),
		InFlight:    s.gate.InFlight(),
		Waiting:     s.gate.Waiting(),
		InFlightCap: s.gate.Cap(),
		RateLimited: s.limiter != nil,
	}
	if s.limiter != nil {
		st.Clients = s.limiter.Clients()
	}
	writeJSON(w, http.StatusOK, st)
}
