package main

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"opprox/internal/serve"
)

const (
	// traceTolerance is how far a child span may stick out of its parent
	// before a traced dispatch counts as not reconciled.
	traceTolerance = 20 * time.Microsecond
	// minReconciled is the share of traced dispatches that must reconcile
	// for a traced run to count as correct.
	minReconciled = 0.99
)

// span is one interval on this process's monotonic clock. Every span of
// a dispatch (client, ingress, hop, owner) is taken in this process, so
// they compare directly.
type span struct{ start, end time.Time }

func (s span) set() bool          { return !s.start.IsZero() }
func (s span) dur() time.Duration { return s.end.Sub(s.start) }

// within reports whether s lies inside parent, give or take
// traceTolerance at either edge.
func (s span) within(parent span) bool {
	return !s.start.Before(parent.start.Add(-traceTolerance)) && !s.end.After(parent.end.Add(traceTolerance))
}

// dispatchSpans are the server-side spans of one traced dispatch.
type dispatchSpans struct {
	ingress span // Handler() of the replica the client entered
	hop     span // shard proxy hop: request out to the close of the owner's body
	owner   span // Handler() of the owning replica, inside the hop
}

// tracer records spans from the benchmark's wrappers around the
// program's seams: each replica's Handler(), the cluster RoundTripper,
// the model Store and the lifecycle OnSwap hook. Spans are kept in memory
// while it is on; the store and swap counts run for the whole traced run.
type tracer struct {
	on    atomic.Bool
	opens atomic.Int64
	swaps atomic.Int64

	mu       sync.Mutex
	spans    map[string]*dispatchSpans
	feedback []time.Duration // ingress /v1/feedback handler times
	puts     []time.Duration // Store.Put times
}

func newTracer() *tracer { return &tracer{spans: map[string]*dispatchSpans{}} }

// start clears the spans and begins recording.
func (t *tracer) start() {
	t.mu.Lock()
	t.spans = map[string]*dispatchSpans{}
	t.feedback = nil
	t.mu.Unlock()
	t.swaps.Store(0)
	t.on.Store(true)
}

// stop ends recording and hands over the spans and feedback handler
// times. Callers stop only after every request of the window completed.
func (t *tracer) stop() (map[string]*dispatchSpans, []time.Duration) {
	t.on.Store(false)
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans, t.feedback
}

// entry returns the spans of dispatch id; t.mu must be held.
func (t *tracer) entry(id string) *dispatchSpans {
	d := t.spans[id]
	if d == nil {
		d = &dispatchSpans{}
		t.spans[id] = d
	}
	return d
}

// wrap times a replica's handler: a dispatch that arrived over a proxy
// hop is the owner's span, any other the ingress span.
func (t *tracer) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if !t.on.Load() {
			h.ServeHTTP(w, req)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, req)
		sp := span{start, time.Now()}
		forwarded := req.Header.Get(forwardHeader) != ""
		t.mu.Lock()
		defer t.mu.Unlock()
		switch {
		case req.URL.Path == "/v1/dispatch" && forwarded:
			t.entry(req.Header.Get(clientHeader)).owner = sp
		case req.URL.Path == "/v1/dispatch":
			t.entry(req.Header.Get(clientHeader)).ingress = sp
		case req.URL.Path == "/v1/feedback" && !forwarded:
			t.feedback = append(t.feedback, sp.dur())
		}
	})
}

func (t *tracer) noteHop(id string, sp span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.entry(id).hop = sp
}

// noteSwap is the lifecycle OnSwap hook.
func (t *tracer) noteSwap(string) { t.swaps.Add(1) }

func (t *tracer) putTimes() []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]time.Duration(nil), t.puts...)
}

// hopTransport is the benchmark-owned RoundTripper on
// ClusterOptions.Client: it times every shard proxy hop, from the request
// to the close of the owner's response body, and can add a fixed delay to
// each hop (the sensitivity self-test).
type hopTransport struct {
	base  http.RoundTripper
	tr    *tracer
	delay atomic.Int64 // nanoseconds of busy-wait before each hop
}

func (h *hopTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	if d := time.Duration(h.delay.Load()); d > 0 {
		// Busy-wait: a sleep this short would overshoot by the timer
		// granularity, and the injected cost must be what was asked.
		for time.Since(start) < d {
		}
	}
	resp, err := h.base.RoundTrip(req)
	if err != nil || !h.tr.on.Load() {
		return resp, err
	}
	id := req.Header.Get(clientHeader)
	resp.Body = &hopBody{ReadCloser: resp.Body, done: func() { h.tr.noteHop(id, span{start, time.Now()}) }}
	return resp, nil
}

// hopBody ends the hop span when the proxy closes the owner's body.
type hopBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *hopBody) Close() error {
	b.once.Do(b.done)
	return b.ReadCloser.Close()
}

// timedStore is the model store with its Open calls counted and its Put
// calls (lifecycle persistence) timed.
type timedStore struct {
	serve.FileStore
	tr *tracer
}

func (s *timedStore) Open(name string) (io.ReadCloser, error) {
	s.tr.opens.Add(1)
	return s.FileStore.Open(name)
}

func (s *timedStore) Put(name string, data []byte) error {
	start := time.Now()
	err := s.FileStore.Put(name, data)
	d := time.Since(start)
	s.tr.mu.Lock()
	s.tr.puts = append(s.tr.puts, d)
	s.tr.mu.Unlock()
	return err
}

// stageSplit divides one traced dispatch's client-observed time (due to
// response read) into consecutive stages: generator wait, client overhead,
// ingress self time and the shard hop, with the owner's handler nested
// inside the hop. Client overhead is the remainder, the client span minus
// the ingress handler, so the stages sum to the total by construction.
type stageSplit struct {
	total, wait, client, ingressSelf, hop, owner time.Duration
	proxied                                      bool
}

// splitStages reports the split and whether it reconciles: every span the
// dispatch needs is present and each child lies inside its parent, within
// traceTolerance.
func splitStages(x *sample, sp *dispatchSpans) (stageSplit, bool) {
	st := stageSplit{total: x.end.Sub(x.due), wait: x.start.Sub(x.due)}
	if sp == nil || !sp.ingress.set() {
		return st, false
	}
	in := sp.ingress
	st.client = x.end.Sub(x.start) - in.dur()
	st.ingressSelf = in.dur()
	ok := in.within(span{x.start, x.end})
	if sp.hop.set() || sp.owner.set() {
		st.proxied = true
		st.hop, st.owner = sp.hop.dur(), sp.owner.dur()
		st.ingressSelf -= st.hop
		ok = ok && sp.hop.set() && sp.owner.set() && sp.hop.within(in) && sp.owner.within(sp.hop)
	}
	return st, ok
}

// spanRow is one traced dispatch in the spans file, in microseconds.
type spanRow struct {
	ID          string  `json:"id"`
	Replica     int     `json:"ingress_replica"`
	Due         float64 `json:"due_us"`
	Total       float64 `json:"total_us"`
	Wait        float64 `json:"wait_us"`
	Client      float64 `json:"client_us"`
	IngressSelf float64 `json:"ingress_self_us"`
	Hop         float64 `json:"hop_us"`
	Owner       float64 `json:"owner_us"`
	Proxied     bool    `json:"proxied"`
	Reconciled  bool    `json:"reconciled"`
}

func (st stageSplit) row(x *sample, t0 time.Time, ok bool) spanRow {
	return spanRow{
		ID: x.id, Replica: x.req.replica, Due: us(x.due.Sub(t0)), Total: us(st.total), Wait: us(st.wait),
		Client: us(st.client), IngressSelf: us(st.ingressSelf), Hop: us(st.hop), Owner: us(st.owner),
		Proxied: st.proxied, Reconciled: ok,
	}
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// writeSpans writes one JSON line per traced dispatch.
func writeSpans(path string, rows []spanRow) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range rows {
		if err := enc.Encode(&rows[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
