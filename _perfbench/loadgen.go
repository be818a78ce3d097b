package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

const (
	// requestTimeout is the client deadline; a request that misses it
	// fails.
	requestTimeout = 5 * time.Second
	// lateCutoff drops requests that could not start within this long of
	// their window's last due time: the run has fallen far behind, and
	// sending them would only stretch it. Dropped requests are not
	// attempted.
	lateCutoff = 2 * time.Second
	// saturated is the rate at which every request of a window is due at
	// its start.
	saturated = math.MaxFloat64
	// spinMargin: a worker sleeps in the kernel until this long before a
	// request is due, then polls the clock. The Go runtime's timers can
	// wake a sub-millisecond sleep a millisecond late when the process is
	// idle, and that lateness would be charged to the request.
	spinMargin = 60 * time.Microsecond
	// maxConns is the most connections the generator opens: nproc on the
	// 2-vCPU machines the benchmark is sized for. Saturation windows keep
	// all of them busy.
	maxConns = 2
	// clientHeader is serve's client-identity header. Traced runs put a
	// per-request id in it; the ingress replica forwards it on the shard
	// proxy hop, which is how owner-side spans join their dispatch.
	clientHeader  = "X-Opprox-Client"
	forwardHeader = "X-Opprox-Forwarded"
)

// loadgen is the open-loop generator: request i of a window is due at
// t0 + (i + jitter)/rate, with a seeded jitter in [0, 1), whether or not
// earlier ones have completed, and its latency runs from that due time,
// so a stall is charged to every request it delays (no coordinated
// omission). Workers take requests in due order, one connection each;
// the transport opens at most maxConns connections.
type loadgen struct {
	url    string
	tag    bool // send a per-request identity (traced runs)
	client *http.Client
	tr     *http.Transport
	dials  atomic.Int64
	ids    atomic.Int64
}

func newLoadgen(url string, tag bool) *loadgen {
	g := &loadgen{url: url, tag: tag}
	var d net.Dialer
	g.tr = &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			g.dials.Add(1)
			return d.DialContext(ctx, network, addr)
		},
		MaxConnsPerHost:     maxConns,
		MaxIdleConnsPerHost: maxConns,
		DisableCompression:  true,
	}
	g.client = &http.Client{Transport: g.tr, Timeout: requestTimeout}
	return g
}

func (g *loadgen) close() { g.tr.CloseIdleConnections() }

// post sends one request to the ingress replica named host and reads the
// whole response.
func (g *loadgen) post(host, path string, body []byte, id string) (int, []byte, http.Header, error) {
	req, err := http.NewRequest(http.MethodPost, g.url+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	req.Host = host
	req.Header.Set("Content-Type", "application/json")
	if id != "" {
		req.Header.Set(clientHeader, id)
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, nil, fmt.Errorf("reading %s response: %w", path, err)
	}
	return resp.StatusCode, b, resp.Header, nil
}

// sample is one generated request and what came back.
type sample struct {
	req       request
	id        string // per-request identity in traced runs
	due       time.Time
	start     time.Time
	end       time.Time     // dispatch response fully read
	skipped   bool          // dropped by lateCutoff, never sent
	err       error         // transport, HTTP status or byte-identity failure
	body      int           // index into the runner's body table
	rung      string        // X-Opprox-Rung
	corrected string        // X-Opprox-Corrected-Budget
	fb        time.Duration // closed-loop feedback round trip
	fbErr     error
	truthDeg  float64 // closed-loop ground-truth degradation
}

func (s *sample) sent() bool { return !s.start.IsZero() && !s.skipped }

// inlineFailure is what the generator saw while sending.
func (s *sample) inlineFailure() error {
	if s.err != nil {
		return s.err
	}
	return s.fbErr
}

// window is one open-loop run: request i is due at t0 + (i + jitter)·interval.
type window struct {
	rate     float64
	t0       time.Time
	interval time.Duration
	samples  []sample
}

// run sends reqs open-loop at rate over workers workers and returns once
// every request has completed or been dropped: a request that could not
// start within cutoff of its window's last due time is dropped, and
// cutoff 0 never drops.
func (g *loadgen) run(reqs []request, rate float64, workers int, cutoff time.Duration, send func(*sample)) *window {
	w := &window{
		rate:     rate,
		interval: time.Duration(float64(time.Second) / rate),
		samples:  make([]sample, len(reqs)),
	}
	w.t0 = time.Now().Add(time.Millisecond)
	deadline := w.t0.Add(time.Duration(len(reqs))*w.interval + cutoff)
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < workers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				s := &w.samples[i]
				s.req = reqs[i]
				s.due = w.t0.Add(time.Duration((float64(i) + s.req.jitter) * float64(w.interval)))
				waitUntil(s.due)
				s.start = time.Now()
				if cutoff > 0 && s.start.After(deadline) {
					s.skipped = true
					continue
				}
				send(s)
			}
		}()
	}
	wg.Wait()
	return w
}

// waitUntil returns at t: a kernel sleep to within spinMargin, then a
// clock poll.
func waitUntil(t time.Time) {
	for d := time.Until(t) - spinMargin; d > 0; d = time.Until(t) - spinMargin {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // an interrupted sleep just loops
	}
	for time.Now().Before(t) {
	}
}

// backlogMax is the most requests that were due but not yet started when
// any request started.
func (w *window) backlogMax() int {
	if w.interval == 0 {
		return len(w.samples) // a saturated window: all due at once
	}
	most := 0
	for i := range w.samples {
		s := &w.samples[i]
		if !s.sent() {
			continue
		}
		due := int(s.start.Sub(w.t0)/w.interval) + 1
		if b := due - i; b > most {
			most = b
		}
	}
	return most
}

// elapsed is the window's wall time, from t0 to the last response.
func (w *window) elapsed() time.Duration {
	var last time.Time
	for i := range w.samples {
		if e := w.samples[i].end; e.After(last) {
			last = e
		}
	}
	return last.Sub(w.t0)
}
