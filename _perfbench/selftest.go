package main

import (
	"fmt"
	"net/http"
	"path/filepath"
	"time"
)

const (
	// selftestPairs and selftestWindow size each self-test series: pairs
	// of two-second windows at hot-fleet's nominal rate.
	selftestPairs  = 10
	selftestWindow = 2 * time.Second
)

// selfTest checks that the benchmark sees a 25% slowdown of one stage. On
// hot-fleet it measures the median shard hop, then alternates windows
// with and without a busy-wait of a quarter of that median inside the
// benchmark-owned cluster RoundTripper. The delayed side must be flagged
// on dispatch_p50_ms and the slowdown attributed to shard.hop_ms; an A/A
// series with no delay must report no change.
func selfTest(dir string, seed int64) (bool, error) {
	w := workloads["hot-fleet"]
	tr := newTracer()
	hop := &hopTransport{base: http.DefaultTransport, tr: tr}
	s, err := setup(w, filepath.Join(dir, "setup0"), tr, hop)
	if err != nil {
		return false, err
	}
	defer s.close()
	r, err := newRunner(w, seed, s)
	if err != nil {
		return false, err
	}
	if err := r.warm(); err != nil {
		return false, err
	}
	measure := func(delay time.Duration) stageMedians {
		hop.delay.Store(int64(delay))
		tr.start()
		win := r.window(w.nominal, selftestWindow)
		spans, _ := tr.stop()
		return r.stageMedians(win, spans)
	}
	delay := measure(0).hop / 4
	fmt.Printf("selftest: injecting %.4f ms (a quarter of the median hop) per shard hop\n", ms(delay))
	ab := pairs("A/B", func() stageMedians { return measure(0) }, func() stageMedians { return measure(delay) })
	aa := pairs("A/A", func() stageMedians { return measure(0) }, func() stageMedians { return measure(0) })
	hop.delay.Store(0)
	r.verify()
	_, failed := r.totals()
	abFlagged, abStage := ab.verdict()
	aaFlagged, _ := aa.verdict()
	ok := failed == 0 && abFlagged && abStage == "shard.hop_ms" && !aaFlagged
	verdict := "FAIL"
	if ok {
		verdict = "PASS"
	}
	fmt.Printf("selftest: A/B flagged=%v, attributed to %s; A/A flagged=%v; failed requests %d: %s\n",
		abFlagged, abStage, aaFlagged, failed, verdict)
	return ok, nil
}

// stageMedians is one self-test window: dispatch p50 from due time and
// the median of each stage over reconciled dispatches (the hop over
// proxied ones only).
type stageMedians struct {
	e2e, wait, client, self, hop time.Duration
}

func (r *runner) stageMedians(w *window, spans map[string]*dispatchSpans) stageMedians {
	var e2e, wait, client, self, hop []time.Duration
	for i := range w.samples {
		x := &w.samples[i]
		if !x.sent() || x.inlineFailure() != nil {
			continue
		}
		e2e = append(e2e, x.end.Sub(x.due))
		st, ok := splitStages(x, spans[x.id])
		if !ok {
			continue
		}
		wait, client, self = append(wait, st.wait), append(client, st.client), append(self, st.ingressSelf)
		if st.proxied {
			hop = append(hop, st.hop)
		}
	}
	return stageMedians{medianDur(e2e), medianDur(wait), medianDur(client), medianDur(self), medianDur(hop)}
}

// series is one self-test comparison: pairs of windows, A first in even
// pairs and B first in odd ones.
type series struct {
	label string
	a, b  []stageMedians
}

func pairs(label string, a, b func() stageMedians) series {
	s := series{label: label}
	for i := 0; i < selftestPairs; i++ {
		if i%2 == 0 {
			s.a = append(s.a, a())
			s.b = append(s.b, b())
		} else {
			s.b = append(s.b, b())
			s.a = append(s.a, a())
		}
	}
	return s
}

// selftestStages are the stages a slowdown can be attributed to.
var selftestStages = []struct {
	name string
	get  func(stageMedians) time.Duration
}{
	{"loadgen.wait_ms", func(m stageMedians) time.Duration { return m.wait }},
	{"http.client_overhead_ms", func(m stageMedians) time.Duration { return m.client }},
	{"serve.ingress_self_ms", func(m stageMedians) time.Duration { return m.self }},
	{"shard.hop_ms", func(m stageMedians) time.Duration { return m.hop }},
}

func medianOf(xs []stageMedians, get func(stageMedians) time.Duration) (time.Duration, []time.Duration) {
	var d []time.Duration
	for _, x := range xs {
		d = append(d, get(x))
	}
	return medianDur(d), d
}

// verdict flags B as slower on dispatch_p50_ms when B is slower in at
// least nine tenths of the pairs and the medians differ by more than the
// interquartile range of A's own windows, and attributes the change to
// the stage whose median moved most.
func (s series) verdict() (flagged bool, stage string) {
	wins := 0
	for i := range s.a {
		if s.b[i].e2e > s.a[i].e2e {
			wins++
		}
	}
	e2e := func(m stageMedians) time.Duration { return m.e2e }
	ma, da := medianOf(s.a, e2e)
	mb, _ := medianOf(s.b, e2e)
	flagged = wins*10 >= 9*len(s.a) && mb-ma > iqrDur(da)
	var best time.Duration
	for i, st := range selftestStages {
		a, _ := medianOf(s.a, st.get)
		b, _ := medianOf(s.b, st.get)
		fmt.Printf("selftest %s: %-24s A %.4f ms  B %.4f ms  delta %+.4f ms\n", s.label, st.name, ms(a), ms(b), ms(b-a))
		if i == 0 || b-a > best {
			best, stage = b-a, st.name
		}
	}
	fmt.Printf("selftest %s: dispatch_p50_ms A %.4f ms  B %.4f ms  delta %+.4f ms  A IQR %.4f ms  B slower in %d/%d pairs  flagged=%v\n",
		s.label, ms(ma), ms(mb), ms(mb-ma), ms(iqrDur(da)), wins, len(s.a), flagged)
	return flagged, stage
}
