package main

import (
	"bytes"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"opprox/internal/apps"
	"opprox/internal/core"
	"opprox/internal/feedback"
	"opprox/internal/serve"
)

// fleet is a running set of loopback replicas. Each replica answers its
// peers (shard proxy hops) on its own listener. The generator enters
// through one front listener that hands each request to the replica its
// Host header names, so the generator's connections stay at maxConns
// however many replicas there are.
type fleet struct {
	servers  []*http.Server
	logs     []*feedback.Log
	frontURL string
	wg       sync.WaitGroup
}

// replicaName names replica i; it is also the Host the front routes on.
func replicaName(i int) string { return fmt.Sprintf("r%d", i) }

// startFleet persists the models into a fresh store and starts
// w.replicas servers over it. Server options stay at their zero values
// (opprox-serve's defaults) except the store, cluster membership and the
// closed-loop switches. tr, when non-nil, wraps the seams the traced run
// times; hop, when non-nil, becomes the cluster proxy's RoundTripper.
func startFleet(w workload, dir string, models map[string][]byte, tr *tracer, hop *hopTransport) (*fleet, error) {
	storeDir := filepath.Join(dir, "models")
	if err := os.MkdirAll(storeDir, 0o755); err != nil {
		return nil, err
	}
	for app, b := range models {
		if err := os.WriteFile(filepath.Join(storeDir, app+".json"), b, 0o644); err != nil {
			return nil, err
		}
	}
	var store serve.Store = serve.FileStore{Root: storeDir}
	if tr != nil {
		store = &timedStore{FileStore: serve.FileStore{Root: storeDir}, tr: tr}
	}
	f := &fleet{}
	var lns []net.Listener
	fail := func(err error) (*fleet, error) {
		for _, ln := range lns {
			ln.Close()
		}
		f.close()
		return nil, err
	}
	srvs := make([]*serve.Server, w.replicas)
	urls := map[string]string{}
	for i := range srvs {
		opts := serve.Options{Store: store}
		if w.closedLoop {
			flog, err := feedback.OpenLogOptions(filepath.Join(dir, replicaName(i)+"-feedback.jsonl"),
				feedback.LogOptions{Sync: true})
			if err != nil {
				return fail(err)
			}
			f.logs = append(f.logs, flog)
			opts.FeedbackLog, opts.Retrain, opts.Proactive = flog, true, true
		}
		if tr != nil {
			opts.Lifecycle.OnSwap = tr.noteSwap
		}
		srvs[i] = serve.New(opts)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return fail(err)
		}
		lns = append(lns, ln)
		urls[replicaName(i)] = "http://" + ln.Addr().String()
	}
	if w.replicas > 1 {
		var client *http.Client
		if hop != nil {
			client = &http.Client{Transport: hop, Timeout: serve.DefaultTimeout + 5*time.Second}
		}
		for i, s := range srvs {
			err := s.ConfigureCluster(serve.ClusterOptions{Self: replicaName(i), Replicas: urls, Client: client})
			if err != nil {
				return fail(err)
			}
		}
	}
	front, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fail(err)
	}
	hosts := map[string]http.Handler{}
	for i, s := range srvs {
		h := s.Handler()
		if tr != nil {
			h = tr.wrap(h)
		}
		hosts[replicaName(i)] = h
		f.serve(lns[i], h)
	}
	f.frontURL = "http://" + front.Addr().String()
	f.serve(front, http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		h, ok := hosts[req.Host]
		if !ok {
			http.Error(rw, "no replica "+req.Host, http.StatusNotFound)
			return
		}
		h.ServeHTTP(rw, req)
	}))
	return f, nil
}

// serve runs an HTTP server on ln until close.
func (f *fleet) serve(ln net.Listener, h http.Handler) {
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	f.servers = append(f.servers, hs)
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		hs.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
}

// close stops every listener and connection, waits for the serve loops
// and closes the feedback logs.
func (f *fleet) close() {
	for _, hs := range f.servers {
		hs.Close()
	}
	f.wg.Wait()
	for _, l := range f.logs {
		l.Close()
	}
}

// setupResult is one set-up — train, persist and start, through the
// first load of each model — and the fleet it left running.
type setupResult struct {
	fleet  *fleet
	g      *loadgen
	models map[string][]byte
	perApp map[string]time.Duration
	train  time.Duration // core.Train + Save for every app
	total  time.Duration // the whole set-up
}

func (s *setupResult) close() {
	s.g.close()
	s.fleet.close()
}

func setup(w workload, dir string, tr *tracer, hop *hopTransport) (*setupResult, error) {
	start := time.Now()
	s := &setupResult{models: map[string][]byte{}, perApp: map[string]time.Duration{}}
	for _, name := range w.apps {
		t0 := time.Now()
		m, err := core.Train(apps.NewRunner(appTable[name]), trainOptions())
		if err != nil {
			return nil, fmt.Errorf("training %s: %w", name, err)
		}
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			return nil, fmt.Errorf("saving %s: %w", name, err)
		}
		s.models[name] = buf.Bytes()
		s.perApp[name] = time.Since(t0)
	}
	s.train = time.Since(start)
	f, err := startFleet(w, dir, s.models, tr, hop)
	if err != nil {
		return nil, err
	}
	s.fleet = f
	s.g = newLoadgen(f.frontURL, tr != nil)
	// First load of every model: one dispatch each, entered at replica 0,
	// which proxies it when another replica owns the model.
	for _, name := range w.apps {
		j := newJob(name, apps.DefaultParams(appTable[name]), 10)
		status, body, _, err := s.g.post(replicaName(0), "/v1/dispatch", j.body, "")
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("HTTP %d: %s", status, body)
		}
		if err != nil {
			s.close()
			return nil, fmt.Errorf("first load of %s: %w", name, err)
		}
	}
	s.total = time.Since(start)
	return s, nil
}
