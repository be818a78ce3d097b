package main

import (
	"encoding/json"
	"math"
	"math/rand"

	"opprox/internal/apps"
	"opprox/internal/apps/comd"
	"opprox/internal/apps/lulesh"
	"opprox/internal/apps/pso"
	"opprox/internal/apps/tracker"
	"opprox/internal/apps/vidpipe"
	"opprox/internal/core"
	"opprox/internal/launch"
	"opprox/internal/serve"
)

// workload is one traffic mix; README.md records why each exists and
// which layers it loads.
type workload struct {
	name string
	// apps are the models trained in set-up and served.
	apps []string
	// replicas is 1 for a standalone server, 3 for a sharded fleet.
	replicas int
	// conns is how many workers, one connection each, send the open-loop
	// windows; saturation windows use maxConns. closed-loop uses one, so
	// the order feedback arrives in (and with it every drift, shadow and
	// promotion decision) is the job order.
	conns int
	// recurring is the size of the fixed job catalog arrivals are drawn
	// from; 0 makes every dispatch a new (app, params, budget).
	recurring int
	// closedLoop posts /v1/feedback after every dispatch, to a server
	// with an fsync'd feedback log and Retrain and Proactive on.
	closedLoop bool
	// nominal is the rate latency is reported at, about half the
	// workload's measured max_rps (README.md).
	nominal float64
	// burst is the number of requests in one saturation window, about a
	// second's worth at the workload's max_rps.
	burst int
}

var allApps = []string{"comd", "lulesh", "pso", "tracker", "vidpipe"}

var workloads = map[string]workload{
	"hot-fleet": {
		name: "hot-fleet", apps: allApps, replicas: 3, conns: 2, recurring: 256,
		nominal: 3500, burst: 14000,
	},
	"cold-unique": {
		name: "cold-unique", apps: allApps, replicas: 1, conns: 2,
		nominal: 60, burst: 220,
	},
	"closed-loop": {
		name: "closed-loop", apps: []string{"vidpipe"}, replicas: 1, conns: 1, recurring: 16, closedLoop: true,
		nominal: 90, burst: 5000,
	},
}

const (
	// catalogSeed fixes the recurring-job catalogs: they are the
	// population of recurring jobs, and --seed draws arrivals from them.
	catalogSeed = 1
	// closedLoopOrderSeed fixes the closed-loop job order, like the
	// catalog (README.md).
	closedLoopOrderSeed = 2
	// driftEpisode is the length of a closed-loop drift regime, in jobs,
	// and driftFactor is the drifting regimes' factor on every phase's
	// ground-truth degradation (truthDeg applies it on the model's log1p
	// scale). Like the catalog they are fixed; closed-loop seeds differ in
	// arrival times only.
	driftEpisode = 150
	driftFactor  = 2.0
)

// appTable holds the five benchmark applications by name; apps carry no
// state, so one instance each serves training, parameter specs and
// blocks.
var appTable = map[string]apps.App{
	"comd": comd.New(), "lulesh": lulesh.New(), "pso": pso.New(),
	"tracker": tracker.New(), "vidpipe": vidpipe.New(),
}

// trainOptions is the offline training every workload runs in set-up:
// cmd/opprox's phase count and seed, with sampling cut down so the five
// apps train in a few seconds rather than cmd/opprox's ~16 s.
func trainOptions() core.Options {
	o := core.DefaultOptions()
	o.Phases = 4
	o.Seed = 1
	o.JointSamplesPerPhase = 8
	o.MaxParamCombos = 4
	o.Folds = 5
	return o
}

// job is one (app, params, budget) dispatch with its canonical request
// bytes.
type job struct {
	app    string
	params apps.Params
	budget float64
	body   []byte
}

func newJob(app string, params apps.Params, budget float64) *job {
	body, err := json.Marshal(serve.DispatchRequest{JobConfig: launch.JobConfig{
		App: app, Budget: budget, Params: params, ModelPath: app + ".json",
	}})
	if err != nil {
		panic(err) // finite floats under string keys always marshal
	}
	return &job{app: app, params: params, budget: budget, body: body}
}

// randomParams draws every parameter uniformly between its smallest and
// largest representative value: whole numbers where all representative
// values are whole, two decimals otherwise.
func randomParams(rng *rand.Rand, a apps.App) apps.Params {
	p := apps.Params{}
	for _, s := range a.Params() {
		lo, hi, whole := s.Values[0], s.Values[0], true
		for _, v := range s.Values {
			lo, hi = math.Min(lo, v), math.Max(hi, v)
			whole = whole && v == math.Trunc(v)
		}
		v := lo + rng.Float64()*(hi-lo)
		if whole {
			v = math.Round(v)
		} else {
			v = math.Round(v*100) / 100
		}
		p[s.Name] = v
	}
	return p
}

// catalog returns n distinct recurring jobs, round-robin over appNames,
// with budgets on a half-point grid in [2, 20].
func catalog(appNames []string, n int) []*job {
	rng := rand.New(rand.NewSource(catalogSeed))
	seen := map[string]bool{}
	var out []*job
	for len(out) < n {
		name := appNames[len(out)%len(appNames)]
		j := newJob(name, randomParams(rng, appTable[name]), math.Round((2+rng.Float64()*18)*2)/2)
		if !seen[string(j.body)] {
			seen[string(j.body)] = true
			out = append(out, j)
		}
	}
	return out
}

// request is one generated arrival.
type request struct {
	job *job
	// jitter places the request's due time within its arrival interval,
	// as a fraction in [0, 1).
	jitter float64
	// replica is the ingress replica the request enters at.
	replica int
	// drift scales the ground-truth degradation closed-loop reports.
	drift float64
}

// traffic draws a workload's arrivals from --seed. On closed-loop only the
// arrival times come from the seed: the job order is drawn from
// closedLoopOrderSeed, fixed like the catalog. The lifecycle's path (how
// many shadows and promotions a window sees) is a function of the order
// feedback arrives in, so a fixed order gives every run the same path.
type traffic struct {
	w       workload
	rng     *rand.Rand      // arrival times, ingress replicas, cold jobs
	order   *rand.Rand      // recurring job choice
	catalog []*job          // recurring jobs; nil when every dispatch is new
	seen    map[string]bool // dispatches already made, when every one is new
	deck    []string        // apps left in the current round of new dispatches
	jobs    int             // closed-loop jobs drawn so far
	// steady ends the closed-loop drift schedule: every later job reports
	// its undrifted ground truth.
	steady bool
}

func newTraffic(w workload, seed int64) *traffic {
	t := &traffic{w: w, rng: rand.New(rand.NewSource(seed)), seen: map[string]bool{}}
	t.order = t.rng
	if w.closedLoop {
		t.order = rand.New(rand.NewSource(closedLoopOrderSeed))
	}
	if w.recurring > 0 {
		t.catalog = catalog(w.apps, w.recurring)
	}
	return t
}

func (t *traffic) next() request {
	r := request{jitter: t.rng.Float64(), replica: t.rng.Intn(t.w.replicas), drift: 1}
	if t.catalog != nil {
		r.job = t.catalog[t.order.Intn(len(t.catalog))]
	} else {
		r.job = t.unique()
	}
	if t.w.closedLoop {
		r.drift = t.drift()
	}
	return r
}

func (t *traffic) batch(n int) []request {
	out := make([]request, n)
	for i := range out {
		out[i] = t.next()
	}
	return out
}

// unique draws a dispatch no earlier request of the run has made:
// parameters as randomParams, budget uniform in [1, 25). Apps come in
// rounds that hold each app once in a seeded order, so every window gets
// the same mix of cheap and costly optimizations.
func (t *traffic) unique() *job {
	for {
		if len(t.deck) == 0 {
			t.deck = append(t.deck, t.w.apps...)
			t.rng.Shuffle(len(t.deck), func(i, j int) { t.deck[i], t.deck[j] = t.deck[j], t.deck[i] })
		}
		name := t.deck[0]
		t.deck = t.deck[1:]
		j := newJob(name, randomParams(t.rng, appTable[name]), 1+t.rng.Float64()*24)
		if !t.seen[string(j.body)] {
			t.seen[string(j.body)] = true
			return j
		}
	}
}

// drift advances the closed-loop ground truth by one job. Episodes of
// driftEpisode jobs alternate between driftFactor and no drift, long
// enough for the default detector (CUSUM threshold 1.0, 8 shadow samples)
// to react and promote before the regime flips back.
func (t *traffic) drift() float64 {
	n := t.jobs
	t.jobs++
	if !t.steady && (n/driftEpisode)%2 == 0 {
		return driftFactor
	}
	return 1
}
