package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"os"
	"strconv"
	"time"

	"opprox/internal/approx"
	"opprox/internal/core"
	"opprox/internal/feedback"
	"opprox/internal/lifecycle"
	"opprox/internal/obs"
	"opprox/internal/serve"
)

const (
	// warmDuration is the open-loop warm-up at the nominal rate before
	// the first measured window.
	warmDuration = 500 * time.Millisecond
	// failedLatency stands in for a failed request's latency, so a
	// failure lands in the slowest percentiles.
	failedLatency = time.Hour
	// saturationWindows is how many windows rps_per_core and max_rps are
	// medians over.
	saturationWindows = 8
)

// runner drives one workload against a running fleet and keeps what the
// output checks and the summaries need.
type runner struct {
	w       workload
	seed    int64
	g       *loadgen
	traffic *traffic
	orig    map[string]*core.Trained // the models as trained
	origVer map[string]string        // their content-hash versions
	bodies  *bodyTable
	windows []*window
}

func newRunner(w workload, seed int64, s *setupResult) (*runner, error) {
	r := &runner{
		w: w, seed: seed, g: s.g, traffic: newTraffic(w, seed),
		orig: map[string]*core.Trained{}, origVer: map[string]string{}, bodies: newBodyTable(),
	}
	for app, b := range s.models {
		m, err := core.LoadTrained(bytes.NewReader(b))
		if err != nil {
			return nil, fmt.Errorf("loading the trained %s model: %w", app, err)
		}
		r.orig[app], r.origVer[app] = m, lifecycle.Version(b)
	}
	return r, nil
}

// window sends rate·d generated requests open-loop at rate.
func (r *runner) window(rate float64, d time.Duration) *window {
	n := int(rate * d.Seconds())
	if n < 1 {
		n = 1
	}
	w := r.g.run(r.traffic.batch(n), rate, r.w.conns, lateCutoff, r.send)
	r.windows = append(r.windows, w)
	return w
}

// warm fills the caches before timing: every recurring job is dispatched
// once, back to back, then a short open-loop window at the nominal rate
// warms the connections and the allocator.
func (r *runner) warm() error {
	if cat := r.traffic.catalog; len(cat) > 0 {
		reqs := make([]request, len(cat))
		for i, j := range cat {
			reqs[i] = request{job: j, replica: i % r.w.replicas, drift: 1}
		}
		r.windows = append(r.windows, r.g.run(reqs, saturated, r.w.conns, 0, r.send))
	}
	r.window(r.w.nominal, warmDuration)
	for _, w := range r.windows {
		for i := range w.samples {
			if err := w.samples[i].inlineFailure(); err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	return nil
}

// send performs one job: the dispatch with its inline byte-identity
// check and, on closed-loop, the feedback report.
func (r *runner) send(s *sample) {
	if r.g.tag {
		s.id = "b" + strconv.FormatInt(r.g.ids.Add(1), 10)
	}
	status, body, hdr, err := r.g.post(replicaName(s.req.replica), "/v1/dispatch", s.req.job.body, s.id)
	s.end = time.Now()
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("dispatch: HTTP %d: %.200s", status, body)
	}
	if err != nil {
		s.err = err
		return
	}
	s.rung = hdr.Get("X-Opprox-Rung")
	s.corrected = hdr.Get("X-Opprox-Corrected-Budget")
	if s.body, s.err = r.bodies.note(s.req.job, s.corrected, body); s.err == nil && r.w.closedLoop {
		r.report(s, body)
	}
}

// report posts the job's realized per-phase QoS: the originally trained
// model's prediction for the served levels, with the job's drift applied
// on the model's log1p scale (truthDeg). An undrifted report therefore
// has zero residual against the trained model and a drifted one a residual
// of log(drift) in every reported phase, which one recalibration removes.
// Phases whose truth the accurate rule or the clamp set are not reported
// (a job with none posts nothing). The job's ground-truth degradation is
// the sum over all phases, the composition the optimizer budgets with.
func (r *runner) report(s *sample, body []byte) {
	var resp serve.DispatchResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		s.fbErr = fmt.Errorf("decoding dispatch response: %w", err)
		return
	}
	m := r.orig[s.req.job.app]
	if resp.Degraded || len(resp.Levels) != m.Phases {
		return // an exact run, or a re-phased model: nothing to price
	}
	rep := feedback.Report{DispatchID: resp.DispatchID}
	for ph, lv := range resp.Levels {
		d, err := m.DiagnosePhase(s.req.job.params, ph, approx.Config(lv))
		if err != nil {
			s.fbErr = fmt.Errorf("pricing served phase %d: %w", ph, err)
			return
		}
		deg, measured := truthDeg(approx.Config(lv), d, s.req.drift)
		s.truthDeg += deg
		if measured {
			rep.Observations = append(rep.Observations, feedback.PhaseObservation{
				Phase: ph, Speedup: core.SpeedupFromScale(d.SpeedupRaw), Degradation: deg,
			})
		}
	}
	if len(rep.Observations) == 0 {
		return
	}
	b, err := json.Marshal(rep)
	if err != nil {
		s.fbErr = fmt.Errorf("encoding feedback: %w", err)
		return
	}
	start := time.Now()
	status, fb, _, err := r.g.post(replicaName(s.req.replica), "/v1/feedback", b, s.id)
	s.fb = time.Since(start)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("feedback: HTTP %d: %.200s", status, fb)
	}
	s.fbErr = err
}

// failure is a sent request's failure, inline or found by verify.
func (r *runner) failure(s *sample) error {
	if err := s.inlineFailure(); err != nil {
		return err
	}
	if e := r.bodies.entries[s.body]; e.err != "" {
		return errors.New(e.err)
	}
	return nil
}

// saturate keeps maxConns connections busy through an unmeasured warm-up
// window and saturationWindows measured ones, each of the workload's burst
// requests, all due at the window's start, and returns two medians over
// the measured windows: wall throughput
// (requests per second from a window's start to its last response) and
// requests per CPU-second the whole process (generator and servers) spent
// in the window. A window is a fixed amount of work rather than a fixed
// time, and on closed-loop the drift schedule has ended: every job still
// reports feedback, but the lifecycle settles instead of racing a
// background retrain, whose finish would fall on a different job in every
// run.
func (r *runner) saturate() (wall, perCore float64) {
	r.traffic.steady = true
	var walls, perCores []float64
	for k := -1; k < saturationWindows; k++ {
		before, cpu0 := obs.Default.Snapshot(), cpuTime()
		w := r.g.run(r.traffic.batch(r.w.burst), saturated, maxConns, 0, r.send)
		cpu, d := cpuTime()-cpu0, obsDiff{before, obs.Default.Snapshot()}
		r.windows = append(r.windows, w)
		reports := 0
		for i := range w.samples {
			if w.samples[i].fb > 0 {
				reports++
			}
		}
		n := float64(len(w.samples))
		wall, perCore := n/w.elapsed().Seconds(), n/cpu.Seconds()
		misses, _ := d.counter("serve.plan.cache.miss")
		promotions, _ := d.counter("lifecycle.promote")
		label := fmt.Sprintf("window %d", k)
		if k < 0 {
			label = "warm-up" // unmeasured: the first window runs slower
		} else {
			walls, perCores = append(walls, wall), append(perCores, perCore)
		}
		fmt.Printf("saturation %s: %.0f requests, %d feedback reports, %.0f plan-cache misses, %.0f promotions; %.3f s, %.4g req/s, %.4g req/CPU-s\n",
			label, n, reports, misses, promotions, w.elapsed().Seconds(), wall, perCore)
	}
	return medianFloat(walls), medianFloat(perCores)
}

// summary is one window after verification.
type summary struct {
	rate            float64
	sent, failed    int
	lat, fb, lags   []time.Duration            // sorted
	byApp           map[string][]time.Duration // lat by app, sorted
	speedupMean     float64
	violations      int
	corrected, full int
}

func (r *runner) summarize(w *window) summary {
	s := summary{rate: w.rate, byApp: map[string][]time.Duration{}}
	speedup := 0.0
	for i := range w.samples {
		x := &w.samples[i]
		if !x.sent() {
			continue
		}
		s.sent++
		s.lags = append(s.lags, x.start.Sub(x.due))
		if r.failure(x) != nil {
			s.failed++
			s.lat = append(s.lat, failedLatency)
			s.byApp[x.req.job.app] = append(s.byApp[x.req.job.app], failedLatency)
			speedup++
			s.violations++
			continue
		}
		s.lat = append(s.lat, x.end.Sub(x.due))
		s.byApp[x.req.job.app] = append(s.byApp[x.req.job.app], x.end.Sub(x.due))
		e := r.bodies.entries[x.body]
		if e.resp.Degraded {
			speedup++
		} else {
			speedup += e.resp.Speedup
		}
		truth := e.truth
		if r.w.closedLoop {
			truth = x.truthDeg
			if x.fb > 0 {
				s.fb = append(s.fb, x.fb)
			}
		}
		if truth > x.req.job.budget+budgetSlack {
			s.violations++
		}
		if x.corrected != "" {
			s.corrected++
		}
		if x.rung == "full" {
			s.full++
		}
	}
	s.lat, s.fb, s.lags = sortedCopy(s.lat), sortedCopy(s.fb), sortedCopy(s.lags)
	for app, lat := range s.byApp {
		s.byApp[app] = sortedCopy(lat)
	}
	if s.sent > 0 {
		s.speedupMean = speedup / float64(s.sent)
	}
	return s
}

// appP50Ms is the mean over the window's apps of each app's median
// dispatch latency, in milliseconds: every app's typical dispatch counts
// once, however costly, and neither the slowest requests of an app nor the
// border between a cheap and a costly app's latencies can move it.
func (s summary) appP50Ms() float64 {
	var sum float64
	for _, lat := range s.byApp {
		sum += ms(percentile(lat, 0.5))
	}
	if len(s.byApp) == 0 {
		return math.NaN()
	}
	return sum / float64(len(s.byApp))
}

// share is n as a share of the requests sent, NaN when none were.
func (s summary) share(n int) float64 {
	if s.sent == 0 {
		return math.NaN()
	}
	return float64(n) / float64(s.sent)
}

func (s summary) note() string {
	return fmt.Sprintf("(n=%d sent=%d ok=%d failed=%d at %.0f req/s)", len(s.lat), s.sent, s.sent-s.failed, s.failed, s.rate)
}

// totals counts every request the run sent, warm-up and saturation
// included, and the failures among them; the first failure goes to
// stderr.
func (r *runner) totals() (attempted, failed int) {
	for _, w := range r.windows {
		for i := range w.samples {
			x := &w.samples[i]
			if !x.sent() {
				continue
			}
			attempted++
			if err := r.failure(x); err != nil {
				if failed == 0 {
					fmt.Fprintln(os.Stderr, "perfbench: first failure:", err)
				}
				failed++
			}
		}
	}
	return attempted, failed
}

// release drops what only the checks needed, before heap_mb is read.
func (r *runner) release() {
	r.windows, r.bodies, r.traffic = nil, nil, nil
}
