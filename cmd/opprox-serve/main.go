// Command opprox-serve is the long-running form of the paper's runtime
// flow (§4.2): instead of re-running a script per job, it keeps trained
// model sets resident in memory and answers dispatch requests over an
// HTTP/JSON API.
//
// Usage:
//
//	opprox-serve [-addr 127.0.0.1:7077] [-models DIR] [-timeout 10s]
//
// Endpoints:
//
//	POST /v1/dispatch  {"app": "pso", "budget": 10, "model_path": "pso.json"}
//	POST /v1/feedback  {"dispatch_id": "...", "observations": [...]}
//	GET  /v1/models    lifecycle view: versions, drift health, shadows
//	POST /v1/promote   {"model": "pso.json"}
//	POST /v1/rollback  {"model": "pso.json"}
//	POST /v1/retrain   {"model": "pso.json"}  (requires -retrain and -feedback-log)
//	POST /v1/reload    {"model": "pso.json"}  (empty body reloads all)
//	GET  /v1/cluster   shard topology: replicas + model ownership
//	GET  /v1/admission admission/ladder state; POST {"force_step": N} pins it
//	GET  /healthz
//	GET  /metricsz
//
// Model files are read from -models (path traversal outside it is
// rejected) and cached after one validated load; a transient read
// error is retried twice, after 25ms and 50ms. A dispatch whose model
// is missing or corrupt returns the all-accurate schedule with
// "degraded": true unless the request sets "strict": true. Pass -addr
// with port 0 to bind an ephemeral port; the chosen address is printed
// on the "listening on" line.
//
// The closed loop: each dispatch response carries a "dispatch_id";
// clients report realized per-phase QoS back on /v1/feedback. A drift
// detector (band exceedances + CUSUM) flips models healthy -> drifting
// -> stale; -feedback-log appends every accepted observation as JSONL
// (rotated into numbered segments when -feedback-log-max-bytes is set).
//
// Online retraining (-retrain, the one drift response): the telemetry
// log is replayed into training matrices, phase boundaries are
// re-detected from realized behavior, and candidate models (recalibrate
// / refit / pooled refit) are fit and judged on a held-out telemetry
// suffix; the winner is dark-launched as a shadow. Triggered by POST
// /v1/retrain or automatically when a model goes stale. A shadow is
// never planned on the dispatch path: feedback reports score it against
// the live version, and it is auto-promoted (-auto-promote) once its
// realized error beats the live version's. Shadow and promoted versions
// are persisted into -models atomically. -proactive adds the Capri-style
// controller: between retrains, observed degradation residuals tighten
// the served budget open-loop (see X-Opprox-Correction on corrected
// responses). The loop's thresholds are tested constants or
// serve.Options defaults; they are not flags.
//
// Serving at scale: repeat dispatches are answered from a bounded
// dispatch-plan cache (serve.DefaultPlanCacheCap entries),
// transparently — responses stay byte-identical to uncached serving.
// Passing -shard-self and -shard-replicas makes this process one
// replica of a sharded fleet: models are partitioned across replicas
// by rendezvous hashing and any replica proxies requests for models it
// does not own to the owner (see GET /v1/cluster).
//
// Overload handling: concurrent dispatch computations are capped
// (serve.DefaultMaxInFlight) and a load-adaptive degradation ladder
// serves cache hits, plans at budgets rounded down to a multiple of 5,
// then a deterministic all-accurate fallback, then 429 + Retry-After
// as pressure rises — see GET /v1/admission, whose POST
// {"force_step": N} pins the ladder. Optional rate limiting
// (-client-rate, -client-burst, -global-rate, -failure-limit,
// -lockout) fronts /v1/dispatch and /v1/feedback with per-client and
// global token buckets plus an invalid-body lockout.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"opprox/internal/admission"
	"opprox/internal/feedback"
	"opprox/internal/lifecycle"
	"opprox/internal/obs"
	"opprox/internal/serve"
)

// parseReplicas parses the -shard-replicas flag: comma-separated
// name=url pairs.
func parseReplicas(spec string) (map[string]string, error) {
	replicas := map[string]string{}
	for _, pair := range strings.Split(spec, ",") {
		name, url, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok || name == "" || url == "" {
			return nil, fmt.Errorf("bad -shard-replicas entry %q (want name=url)", pair)
		}
		if _, dup := replicas[name]; dup {
			return nil, fmt.Errorf("duplicate replica %q in -shard-replicas", name)
		}
		replicas[name] = url
	}
	return replicas, nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("opprox-serve: ")

	addr := flag.String("addr", "127.0.0.1:7077", "listen address (port 0 picks an ephemeral port)")
	models := flag.String("models", ".", "model store directory")
	timeout := flag.Duration("timeout", serve.DefaultTimeout, "per-request budget")
	metrics := flag.String("metrics", "", "write a JSON metrics snapshot to this file on shutdown")
	feedbackLog := flag.String("feedback-log", "", "append accepted feedback observations to this JSONL file (fsync per entry)")
	feedbackLogMaxBytes := flag.Int64("feedback-log-max-bytes", 0, "rotate the feedback log into numbered segments past this size (0: never)")
	autoPromote := flag.Bool("auto-promote", true, "promote a shadow automatically once it beats the live version")
	shardSelf := flag.String("shard-self", "", "this replica's name in a sharded fleet (requires -shard-replicas)")
	shardReplicas := flag.String("shard-replicas", "", "comma-separated name=url replica set, including self (e.g. a=http://127.0.0.1:7077,b=http://127.0.0.1:7078)")
	clientRate := flag.Float64("client-rate", 0, "per-client admission rate in requests/s (0: unlimited)")
	clientBurst := flag.Float64("client-burst", 0, "per-client token-bucket burst (0: defaults from -client-rate)")
	globalRate := flag.Float64("global-rate", 0, "global admission rate in requests/s across all clients (0: unlimited)")
	failureLimit := flag.Int("failure-limit", 0, "invalid bodies within a 10s window that lock a client out (0: no lockout)")
	lockout := flag.Duration("lockout", 0, "how long a locked-out client stays rejected (0: 30s)")
	retrainOn := flag.Bool("retrain", false, "enable online retraining from the feedback log (requires -feedback-log)")
	proactive := flag.Bool("proactive", false, "enable the proactive controller: correct served budgets from observed degradation residuals")
	flag.Parse()

	var flog *feedback.Log
	if *feedbackLog != "" {
		var err error
		flog, err = feedback.OpenLogOptions(*feedbackLog, feedback.LogOptions{
			Sync:     true,
			MaxBytes: *feedbackLogMaxBytes,
		})
		if err != nil {
			log.Fatal(err)
		}
		defer flog.Close()
	}
	if *retrainOn && flog == nil {
		log.Fatal("-retrain requires -feedback-log (the pipeline replays it)")
	}

	// Rate limiting is opt-in: the limiter exists only when at least
	// one admission knob is set, so a bare opprox-serve behaves exactly
	// as before (the in-flight gate and degradation ladder always run).
	var adm *admission.Options
	if *clientRate > 0 || *globalRate > 0 || *failureLimit > 0 {
		adm = &admission.Options{
			ClientRate:   *clientRate,
			ClientBurst:  *clientBurst,
			GlobalRate:   *globalRate,
			FailureLimit: *failureLimit,
			Lockout:      *lockout,
		}
	}

	srv := serve.New(serve.Options{
		Store:       serve.FileStore{Root: *models},
		Timeout:     *timeout,
		Lifecycle:   lifecycle.Options{DisableAutoPromote: !*autoPromote},
		FeedbackLog: flog,
		Admission:   adm,
		Retrain:     *retrainOn,
		Proactive:   *proactive,
	})

	if (*shardSelf == "") != (*shardReplicas == "") {
		log.Fatal("-shard-self and -shard-replicas must be set together")
	}
	if *shardSelf != "" {
		replicas, err := parseReplicas(*shardReplicas)
		if err != nil {
			log.Fatal(err)
		}
		if err := srv.ConfigureCluster(serve.ClusterOptions{Self: *shardSelf, Replicas: replicas}); err != nil {
			log.Fatal(err)
		}
		log.Printf("sharded: replica %q of %d", *shardSelf, len(replicas))
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("listening on http://%s (models: %s)", ln.Addr(), *models)

	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatal(err)
		}
	case <-ctx.Done():
		log.Printf("shutting down")
		shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(shutCtx); err != nil {
			log.Printf("shutdown: %v", err)
		}
	}

	if *metrics != "" {
		f, err := os.Create(*metrics)
		if err != nil {
			log.Fatal(err)
		}
		if err := obs.Default.WriteJSON(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "metrics written to %s\n", *metrics)
	}
}
