package main

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"opprox/internal/core"
	"opprox/internal/feedback"
	"opprox/internal/obs"
)

const (
	// An untraced run sets up at least minSetups times and until the
	// set-ups together took setupBudget, at most maxSetups times; setup_s
	// and train_s report the median, and the last fleet is the one
	// measured. A one-model workload sets up in well under a second, so it
	// repeats more often.
	minSetups   = 3
	maxSetups   = 9
	setupBudget = 4 * time.Second
	// nominalShare is the percentage of --seconds an untraced run spends
	// at the nominal rate; the saturation windows, sized to take most of
	// the rest, follow.
	nominalShare = 60
	// appendReplays is how many logged feedback entries a traced
	// closed-loop run re-appends to time Log.Append.
	appendReplays = 200
	// maxReplay bounds the distinct dispatches replayed through Optimize.
	maxReplay = 300
)

// countNames are lifecycle and retrain counters printed as exact counts
// for the nominal window. The closed-loop job order and drift schedule are
// fixed and its nominal window runs on one connection, so the counts
// repeat across runs and seeds unless a background retrain finishes on a
// different job than usual.
var countNames = []string{
	"lifecycle.shadow.created", "lifecycle.promote", "lifecycle.promote.auto",
	"lifecycle.rollback", "retrain.runs", "serve.retrain.triggered",
}

// runUntraced measures the end-to-end metrics: set-up, the nominal
// window (latency, speedup, budget adherence), then the saturation
// windows (rps_per_core).
func runUntraced(w workload, dir string, seed int64, seconds int) (*result, error) {
	var s *setupResult
	var setups, trains []float64
	var spent time.Duration
	for rep := 0; rep < maxSetups && (rep < minSetups || spent < setupBudget); rep++ {
		if s != nil {
			s.close()
		}
		var err error
		if s, err = setup(w, filepath.Join(dir, fmt.Sprintf("setup%d", rep)), nil, nil); err != nil {
			return nil, err
		}
		setups = append(setups, s.total.Seconds())
		trains = append(trains, s.train.Seconds())
		spent += s.total
	}
	defer s.close()
	r, err := newRunner(w, seed, s)
	if err != nil {
		return nil, err
	}
	if err := r.warm(); err != nil {
		return nil, err
	}
	measured := time.Duration(seconds) * time.Second
	before := obs.Default.Snapshot()
	nominal := r.window(w.nominal, measured*nominalShare/100)
	counts := obsDiff{before, obs.Default.Snapshot()}
	maxRPS, perCore := r.saturate()
	r.verify()

	res := newResult()
	sum := r.summarize(nominal)
	res.set("setup_s", medianFloat(setups), "s", fmt.Sprintf("median of %d set-ups %.4g", len(setups), setups))
	show("train_s", medianFloat(trains), "s", fmt.Sprintf("median of %d trainings %.4g", len(trains), trains))
	res.set("dispatch_app_p50_ms", sum.appP50Ms(), "ms", fmt.Sprintf("mean over %d apps of each app's median %s", len(sum.byApp), sum.note()))
	printAppLatencies(sum)
	show("dispatch_mean_ms", meanMs(sum.lat), "ms", sum.note())
	show("dispatch_p50_ms", ms(percentile(sum.lat, 0.50)), "ms", sum.note())
	show("dispatch_p90_ms", ms(percentile(sum.lat, 0.90)), "ms", fmt.Sprintf("%d samples beyond %s", len(sum.lat)/10, sum.note()))
	show("dispatch_p99_ms", ms(percentile(sum.lat, 0.99)), "ms", fmt.Sprintf("%d samples beyond %s", len(sum.lat)/100, sum.note()))
	saturation := fmt.Sprintf("median of %d saturation windows, %d connections busy", saturationWindows, maxConns)
	res.set("rps_per_core", perCore, "1/s", "requests per CPU-second of the process, "+saturation)
	show("max_rps", maxRPS, "1/s", saturation)
	res.set("success_ratio", 1-sum.share(sum.failed), "ratio", "1 - error_ratio "+sum.note())
	show("error_ratio", sum.share(sum.failed), "ratio", sum.note())
	res.set("plan_speedup_mean", sum.speedupMean, "x", sum.note()+", failed and degraded count 1.0")
	show("budget_violation_ratio", sum.share(sum.violations), "ratio", sum.note())
	if w.closedLoop {
		show("feedback_p99_ms", p99Ms(sum.fb), "ms", fmt.Sprintf("(n=%d)", len(sum.fb)))
	}
	show("loadgen.lag_p99_ms", ms(percentile(sum.lags, 0.99)), "ms", sum.note())
	printCounts(counts)
	res.Attempted, res.Failed = r.totals()
	res.Correct = res.Attempted > 0 && res.Failed == 0
	r.release()
	res.set("heap_mb", heapMB(), "MB", "live heap after runtime.GC() at the end of the run")
	return res, nil
}

// printAppLatencies prints each app's dispatch latency quartiles from
// due time.
func printAppLatencies(sum summary) {
	for _, app := range allApps {
		if lat := sum.byApp[app]; len(lat) > 0 {
			fmt.Printf("app %-8s n=%-6d p25 %.3f  p50 %.3f  p75 %.3f ms\n", app, len(lat),
				ms(percentile(lat, 0.25)), ms(percentile(lat, 0.5)), ms(percentile(lat, 0.75)))
		}
	}
}

func printCounts(d obsDiff) {
	for _, n := range countNames {
		if v, ok := d.counter(n); ok {
			fmt.Printf("count %-32s %d\n", n, int64(v))
		} else {
			fmt.Printf("count %-32s absent\n", n)
		}
	}
}

// runTraced measures the per-layer metrics: one set-up with the seam
// wrappers installed, an untraced reference window, a traced window at
// the nominal rate, then in-process replays of the optimizer and the
// feedback log.
func runTraced(w workload, dir, tracedir string, seed int64, seconds int) (*result, error) {
	tr := newTracer()
	var hop *hopTransport
	if w.replicas > 1 {
		hop = &hopTransport{base: http.DefaultTransport, tr: tr}
	}
	s0 := obs.Default.Snapshot()
	s, err := setup(w, filepath.Join(dir, "setup0"), tr, hop)
	if err != nil {
		return nil, err
	}
	defer s.close()
	setupObs := obsDiff{s0, obs.Default.Snapshot()}
	r, err := newRunner(w, seed, s)
	if err != nil {
		return nil, err
	}
	if err := r.warm(); err != nil {
		return nil, err
	}
	measured := time.Duration(seconds) * time.Second
	ref := r.window(w.nominal, measured*3/10)
	entriesA, sizeA, err := readLogs(s.fleet)
	if err != nil {
		return nil, err
	}
	tr.start()
	a := obs.Default.Snapshot()
	cpuA, memA := cpuTime(), memStats()
	tw := r.window(w.nominal, measured/2)
	cpuB, memB := cpuTime(), memStats()
	d := obsDiff{a, obs.Default.Snapshot()}
	spans, fbHandler := tr.stop()
	entriesB, sizeB, err := readLogs(s.fleet)
	if err != nil {
		return nil, err
	}
	r.verify()

	res := newResult()
	ts, rs := r.summarize(tw), r.summarize(ref)
	sent := float64(ts.sent)

	var rows []spanRow
	var client, ingress, hops, owners []time.Duration
	reconciled := 0
	for i := range tw.samples {
		x := &tw.samples[i]
		if !x.sent() || r.failure(x) != nil {
			continue
		}
		sp := spans[x.id]
		if sp != nil && sp.ingress.set() {
			ingress = append(ingress, sp.ingress.dur())
		}
		st, ok := splitStages(x, sp)
		if ok {
			reconciled++
			client = append(client, st.client)
			if st.proxied {
				hops = append(hops, st.hop)
				owners = append(owners, st.owner)
			}
		}
		rows = append(rows, st.row(x, tw.t0, ok))
	}
	reconciledShare := float64(reconciled) / sent

	res.set("loadgen.lag_p99_ms", ms(percentile(ts.lags, 0.99)), "ms", ts.note())
	res.set("loadgen.backlog_max", float64(tw.backlogMax()), "count", ts.note())
	res.set("loadgen.connections", float64(r.g.dials.Load()), "count",
		fmt.Sprintf("connections the generator opened; %d workers, limit %d", w.conns, maxConns))
	res.set("http.client_overhead_ms", ms(medianDur(client)), "ms",
		fmt.Sprintf("median of client span - ingress handler (n=%d)", len(client)))
	res.set("serve.dispatch_handler_ms_mean", meanMs(ingress), "ms", fmt.Sprintf("ingress Handler() (n=%d)", len(ingress)))
	res.set("serve.dispatch_handler_ms_p99", p99Ms(ingress), "ms", fmt.Sprintf("ingress Handler() (n=%d)", len(ingress)))
	res.set("serve.feedback_handler_ms_mean", meanMs(fbHandler), "ms", fmt.Sprintf("ingress Handler() (n=%d)", len(fbHandler)))
	res.set("serve.feedback_handler_ms_p99", p99Ms(fbHandler), "ms", fmt.Sprintf("ingress Handler() (n=%d)", len(fbHandler)))
	proxied := math.NaN()
	if w.replicas == 1 {
		proxied = 0 // standalone: no cluster, nothing can be proxied
	} else if v, ok := d.counter("serve.cluster.proxied"); ok {
		proxied = v / sent
	}
	res.set("shard.proxied_share", proxied, "ratio", "serve.cluster.proxied / dispatches sent")
	res.set("shard.hop_ms_mean", meanMs(hops), "ms", fmt.Sprintf("cluster RoundTripper (n=%d)", len(hops)))
	res.set("shard.hop_ms_p99", p99Ms(hops), "ms", fmt.Sprintf("cluster RoundTripper (n=%d)", len(hops)))
	res.set("shard.owner_handler_ms", meanMs(owners), "ms", fmt.Sprintf("owner Handler() mean (n=%d)", len(owners)))

	pc, pcOK := d.family("serve.plan.cache.hit", "serve.plan.cache.miss", "serve.plan.cache.evicted", "serve.plan.cache.invalidated")
	res.set("plancache.hit_ratio", ratioIf(pcOK, pc[0], pc[0]+pc[1]), "ratio", "serve.plan.cache.hit / (hit + miss)")
	res.set("plancache.evictions", valueIf(pcOK, pc[2]), "count", "serve.plan.cache.evicted")
	res.set("plancache.invalidations", valueIf(pcOK, pc[3]), "count", "serve.plan.cache.invalidated")
	runs, runsOK := d.counter("core.optimize.runs")
	res.set("flight.optimize_per_miss", ratioIf(runsOK && pcOK, runs, pc[1]), "ratio", "core.optimize.runs / plan-cache misses")
	n, busy, ok := d.hist("core.optimize.duration")
	res.set("core.optimize_ms_mean", ratioIf(ok, ms(busy), n), "ms", fmt.Sprintf("core.optimize.duration (n=%.0f)", n))
	res.set("core.optimize_busy_share", ratioIf(ok, busy.Seconds(), tw.elapsed().Seconds()), "ratio",
		"core.optimize.duration sum / traced window wall time")
	perApp, diag := r.replayOptimize(tw)
	for _, app := range allApps {
		v, ok := perApp[app]
		res.set("core.optimize_ms."+app, valueIf(ok, v), "ms", "in-process Optimize replay of the traced dispatches")
	}
	res.set("core.diagnose_ms_mean", diag, "ms", "in-process DiagnosePhase replay, per phase")
	loadMs, err := replayLoad(s.models)
	if err != nil {
		return nil, err
	}
	res.set("registry.load_ms", loadMs, "ms", fmt.Sprintf("in-process core.LoadTrained replay of the %d stored models, mean", len(s.models)))
	res.set("store.opens", float64(tr.opens.Load()), "count", "Store.Open calls over the run")
	res.set("qos.rung_full_share", ts.share(ts.full), "ratio", "X-Opprox-Rung: full")
	lad, ladOK := d.family("serve.ladder.degraded", "serve.dispatch.requests")
	res.set("qos.rung_degraded", valueIf(ladOK, lad[0]), "count", "serve.ladder.degraded")
	rej, rejOK := d.prefix("serve.admission.rejected.")
	res.set("admission.rejected", valueIf(rejOK, rej), "count", "serve.admission.rejected.*")

	fbEntries, fbBytes, fbAppend, fbStale := math.NaN(), math.NaN(), math.NaN(), math.NaN()
	if w.closedLoop {
		fbEntries = float64(len(entriesB) - len(entriesA))
		if len(ts.fb) > 0 {
			fbBytes = float64(sizeB-sizeA) / float64(len(ts.fb))
		}
		fbAppend, err = replayAppend(filepath.Join(dir, "append-replay.jsonl"), tail(entriesB, appendReplays))
		if err != nil {
			return nil, err
		}
		fs, fsOK := d.family("serve.feedback.stale_version", "serve.feedback.requests")
		fbStale = ratioIf(fsOK, fs[0], fs[1])
	}
	res.set("feedback.log_entries", fbEntries, "count", "entries appended to the feedback log in the traced window")
	res.set("feedback.log_bytes_per_report", fbBytes, "B", "log growth / feedback reports")
	res.set("feedback.append_ms", fbAppend, "ms", fmt.Sprintf("replayed Log.Append with Sync, mean of up to %d", appendReplays))
	res.set("feedback.stale_version_share", fbStale, "ratio", "serve.feedback.stale_version / serve.feedback.requests")
	res.set("feedback.client_p99_ms", p99Ms(ts.fb), "ms", fmt.Sprintf("feedback round trip (n=%d)", len(ts.fb)))

	lc, lcOK := d.family("lifecycle.shadow.created", "lifecycle.promote", "serve.shadow.evaluated")
	res.set("lifecycle.shadows_created", valueIf(lcOK, lc[0]), "count", "lifecycle.shadow.created")
	res.set("lifecycle.promotions", valueIf(lcOK, lc[1]), "count", "lifecycle.promote")
	res.set("lifecycle.shadow_evals", valueIf(lcOK, lc[2]), "count", "serve.shadow.evaluated")
	puts := tr.putTimes()
	res.set("lifecycle.persist_ms", meanMs(puts), "ms", fmt.Sprintf("Store.Put over the run (n=%d)", len(puts)))
	res.set("lifecycle.swaps", float64(tr.swaps.Load()), "count", "OnSwap calls in the traced window")
	res.set("controller.corrected_share", ts.share(ts.corrected), "ratio", "responses with X-Opprox-Correction")
	res.set("controller.budget_violation_ratio", ts.share(ts.violations), "ratio",
		"jobs whose ground-truth degradation exceeds the client budget "+ts.note())
	rt, rtOK := d.counter("retrain.runs")
	res.set("retrain.runs", valueIf(rtOK, rt), "count", "retrain.runs")
	rn, rsum, rok := d.hist("retrain.duration")
	res.set("retrain.ms_mean", ratioIf(rok, ms(rsum), rn), "ms", "retrain.duration")
	for _, app := range allApps {
		t, ok := s.perApp[app]
		res.set("train."+app+"_s", valueIf(ok, t.Seconds()), "s", "core.Train + Save")
	}
	_, sampleSum, sok := setupObs.hist("core.sample.pool.duration")
	res.set("train.sample_s", valueIf(sok, sampleSum.Seconds()), "s", "core.sample.pool.duration over set-up")
	_, fitSum, fok := setupObs.hist("core.fit.duration")
	res.set("train.fit_s", valueIf(fok, fitSum.Seconds()), "s", "core.fit.duration over set-up")
	res.set("process.cpu_ms_per_req", ms(cpuB-cpuA)/sent, "ms", "getrusage over the traced window, generator and servers together")
	res.set("runtime.allocs_per_req", float64(memB.Mallocs-memA.Mallocs)/sent, "count", "runtime.MemStats, whole process")
	res.set("runtime.alloc_kb_per_req", float64(memB.TotalAlloc-memA.TotalAlloc)/1024/sent, "KiB", "runtime.MemStats, whole process")
	res.set("runtime.gc_cycles", float64(memB.NumGC-memA.NumGC), "count", "GC cycles in the traced window")
	res.set("trace.overhead_ms", ms(percentile(ts.lat, 0.5)-percentile(rs.lat, 0.5)), "ms",
		fmt.Sprintf("traced %s minus untraced %s dispatch p50", ts.note(), rs.note()))
	res.set("trace.reconciled_share", reconciledShare, "ratio",
		fmt.Sprintf("dispatches with every span present, nested within %v (%d of %d)", traceTolerance, reconciled, ts.sent))

	path := filepath.Join(tracedir, fmt.Sprintf("%s-seed%d.jsonl", w.name, seed))
	if err := writeSpans(path, rows); err != nil {
		return nil, err
	}
	fmt.Printf("spans written to %s\n", path)
	res.Attempted, res.Failed = r.totals()
	res.Correct = res.Attempted > 0 && res.Failed == 0 && reconciledShare >= minReconciled
	return res, nil
}

// replayOptimize re-runs the traced window's distinct dispatches through
// core.Trained.Optimize and DiagnosePhase in process, on the models as
// trained: mean milliseconds per Optimize for each app, and per diagnosed
// phase.
func (r *runner) replayOptimize(w *window) (map[string]float64, float64) {
	seen := map[*job]bool{}
	sums := map[string]time.Duration{}
	counts := map[string]int{}
	var diag []time.Duration
	for i := range w.samples {
		j := w.samples[i].req.job
		if j == nil || seen[j] || len(seen) == maxReplay {
			continue
		}
		seen[j] = true
		m := r.orig[j.app]
		start := time.Now()
		sched, _, err := m.Optimize(j.params, j.budget)
		sums[j.app] += time.Since(start)
		counts[j.app]++
		if err != nil {
			continue
		}
		for ph, cfg := range sched.Levels {
			start := time.Now()
			if _, err := m.DiagnosePhase(j.params, ph, cfg); err != nil {
				continue
			}
			diag = append(diag, time.Since(start))
		}
	}
	perApp := map[string]float64{}
	for app, n := range counts {
		perApp[app] = ms(sums[app]) / float64(n)
	}
	return perApp, meanMs(diag)
}

// replayLoad parses each stored model's bytes as the serving lifecycle
// does on a first load (core.LoadTrained) and returns the mean
// milliseconds per model. The lifecycle reads the store itself, so the
// registry's serve.model.load timer does not see these loads.
func replayLoad(models map[string][]byte) (float64, error) {
	var total time.Duration
	for app, b := range models {
		start := time.Now()
		if _, err := core.LoadTrained(bytes.NewReader(b)); err != nil {
			return 0, fmt.Errorf("loading %s: %w", app, err)
		}
		total += time.Since(start)
	}
	return ms(total) / float64(len(models)), nil
}

// readLogs returns every entry of the fleet's feedback logs and their
// total size.
func readLogs(f *fleet) ([]feedback.Entry, int64, error) {
	var all []feedback.Entry
	var size int64
	for _, l := range f.logs {
		es, err := feedback.ReadLogFile(l.Path())
		if err != nil {
			return nil, 0, err
		}
		st, err := os.Stat(l.Path())
		if err != nil {
			return nil, 0, err
		}
		all = append(all, es...)
		size += st.Size()
	}
	return all, size, nil
}

func tail(es []feedback.Entry, n int) []feedback.Entry {
	if len(es) > n {
		return es[len(es)-n:]
	}
	return es
}

// replayAppend appends entries to a fresh fsync'd log and returns the
// mean milliseconds per Append (NaN when there is nothing to append).
func replayAppend(path string, entries []feedback.Entry) (float64, error) {
	if len(entries) == 0 {
		return math.NaN(), nil
	}
	l, err := feedback.OpenLogOptions(path, feedback.LogOptions{Sync: true})
	if err != nil {
		return 0, err
	}
	var total time.Duration
	for _, e := range entries {
		start := time.Now()
		if err := l.Append(e); err != nil {
			l.Close()
			return 0, err
		}
		total += time.Since(start)
	}
	if err := l.Close(); err != nil {
		return 0, err
	}
	return ms(total) / float64(len(entries)), nil
}

// obsDiff reads obs.Default by name across a measured window as the
// difference of two snapshots; nothing calls Reset.
type obsDiff struct{ a, b obs.Snapshot }

// counter is the named counter's increase; ok is false when the later
// snapshot does not have it.
func (d obsDiff) counter(name string) (float64, bool) {
	v, ok := d.b.Counters[name]
	if !ok {
		return 0, false
	}
	return float64(v - d.a.Counters[name]), true
}

// family reads counters the serving code creates lazily as one family: a
// missing member of a present family counts zero, and the family is
// absent only when every member is.
func (d obsDiff) family(names ...string) ([]float64, bool) {
	vals := make([]float64, len(names))
	present := false
	for i, n := range names {
		v, ok := d.counter(n)
		vals[i], present = v, present || ok
	}
	return vals, present
}

// prefix sums every counter under a name prefix.
func (d obsDiff) prefix(p string) (float64, bool) {
	sum, present := 0.0, false
	for name := range d.b.Counters {
		if strings.HasPrefix(name, p) {
			v, _ := d.counter(name)
			sum, present = sum+v, true
		}
	}
	return sum, present
}

// hist is a duration histogram's increase in count and sum.
func (d obsDiff) hist(name string) (float64, time.Duration, bool) {
	h, ok := d.b.Histograms[name]
	if !ok {
		return 0, 0, false
	}
	a := d.a.Histograms[name]
	return float64(h.Count - a.Count), time.Duration((h.SumSeconds - a.SumSeconds) * float64(time.Second)), true
}

// valueIf is v, or NaN (reported absent) when its source was not seen.
func valueIf(ok bool, v float64) float64 {
	if !ok {
		return math.NaN()
	}
	return v
}

// ratioIf is num/den, NaN when the source was not seen or den is 0.
func ratioIf(ok bool, num, den float64) float64 {
	if !ok || den == 0 {
		return math.NaN()
	}
	return num / den
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func memStats() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

// heapMB is the live heap in MiB after two collections: the second one
// also frees what the first moved into sync.Pool victim caches.
func heapMB() float64 {
	runtime.GC()
	runtime.GC()
	m := memStats()
	return float64(m.HeapAlloc) / (1 << 20)
}
