package core

import (
	"fmt"
	"sort"

	"opprox/internal/approx"
	"opprox/internal/apps"
	"opprox/internal/obs"
)

// Prediction is what the optimizer believes the chosen schedule will do.
// It deliberately carries no wall-clock measurement: predictions flow
// into serialized dispatch bodies and determinism goldens, so timing
// lives in obs (core.optimize.duration) where the vet walltime analyzer
// can see it is observability-only.
type Prediction struct {
	// Speedup is the composed application speedup estimate.
	Speedup float64
	// Degradation is the total predicted QoS degradation.
	Degradation float64
	// PerPhase breaks the plan down.
	PerPhase []PhasePlan
}

// PhasePlan is one phase's slice of the plan.
type PhasePlan struct {
	Phase       int
	Levels      approx.Config
	Budget      float64 // sub-budget this phase was given
	Speedup     float64 // predicted (conservative) speedup
	Degradation float64 // predicted (conservative) degradation
}

// Optimize implements the paper's Algorithm 2: split the QoS-degradation
// budget across phases in proportion to their ROI, visit phases in
// decreasing ROI order, pick the configuration with the best predicted
// speedup whose conservative predicted degradation fits the phase budget,
// and hand any unused budget to the remaining phases.
func (t *Trained) Optimize(p apps.Params, budget float64) (approx.Schedule, Prediction, error) {
	stop := obs.Timer("core.optimize.duration")
	if budget < 0 {
		return approx.Schedule{}, Prediction{}, fmt.Errorf("core: negative budget %g", budget)
	}
	pv := p.Vector(t.Specs)
	cm, err := t.classFor(pv)
	if err != nil {
		return approx.Schedule{}, Prediction{}, err
	}

	// Each phase's Pareto-front survivors are collapsed exactly once into
	// an upgrade ladder by one batched predict pass (library.go); every
	// budget query afterwards is a binary search, so planMenus'
	// reallocation passes cost O(log configs) instead of a full
	// re-enumeration each. planMenus clones the levels it returns, so the
	// ladders' scratch is released right after.
	menus, release, err := t.phaseMenus(cm, pv)
	if err != nil {
		return approx.Schedule{}, Prediction{}, err
	}
	sched, pred := t.planMenus(cm, menus, budget)
	release()
	stop()
	obs.Inc("core.optimize.runs")
	return sched, pred, nil
}

// planMenus runs Algorithm 2's allocation over per-phase upgrade ladders
// already built for one class at one parameter vector.
func (t *Trained) planMenus(cm *ClassModels, menus []phaseMenu, budget float64) (approx.Schedule, Prediction) {
	// Normalized budget shares (paper: normROI · QoSb).
	shares := make([]float64, t.Phases)
	switch t.Opts.BudgetPolicy {
	case BudgetPolicyUniform:
		for ph := range shares {
			shares[ph] = 1 / float64(t.Phases)
		}
	default: // BudgetPolicyROI
		total := 0.0
		for _, pm := range cm.Phase {
			total += pm.ROI
		}
		if total <= 0 {
			for ph := range shares {
				shares[ph] = 1 / float64(t.Phases)
			}
		} else {
			for ph, pm := range cm.Phase {
				shares[ph] = pm.ROI / total
			}
		}
	}

	// Visit phases in decreasing ROI order (paper §3.8).
	order := make([]int, t.Phases)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ra, rb := cm.Phase[order[a]].ROI, cm.Phase[order[b]].ROI
		if ra != rb {
			return ra > rb
		}
		return order[a] < order[b]
	})

	// refill offers the pooled remainder to each phase (best ROI first)
	// until no phase can upgrade — the paper's leftover reallocation,
	// iterated to a fixed point. A phase index passed as pinned is held at
	// its current configuration (used by the downgrade moves below; -1
	// pins nothing).
	refill := func(plans []PhasePlan, levels []approx.Config, leftover float64, pinned int) {
		for pass := 0; pass < 2*t.Phases && leftover > 1e-9; pass++ {
			improved := false
			for _, ph := range order {
				if ph == pinned {
					continue
				}
				phaseBudget := plans[ph].Degradation + leftover
				c := menus[ph].query(phaseBudget)
				if c.spd > plans[ph].Speedup+1e-12 {
					leftover = phaseBudget - c.deg
					if leftover < 0 {
						leftover = 0
					}
					levels[ph] = c.cfg
					plans[ph] = PhasePlan{Phase: ph, Levels: c.cfg, Budget: phaseBudget, Speedup: c.spd, Degradation: c.deg}
					improved = true
					obs.Inc("core.optimize.reallocations")
				}
			}
			if !improved {
				break
			}
		}
	}
	totalSavings := func(plans []PhasePlan) float64 {
		s := 0.0
		for _, pl := range plans {
			if pl.Speedup > 0 {
				s += 1 - 1/pl.Speedup
			}
		}
		return s
	}
	totalDeg := func(plans []PhasePlan) float64 {
		d := 0.0
		for _, pl := range plans {
			d += pl.Degradation
		}
		return d
	}

	// localSearch is the downgrade-and-reallocate escape: greedy refill
	// can trap the plan — a phase grabs a configuration that marginally
	// improves its own speedup while consuming budget that, pooled, would
	// have bought better upgrades elsewhere. Tentatively pin one phase at
	// each cheaper rung of its ladder (down to accurate), refill the
	// others from the pooled remainder, and keep the candidate when the
	// total predicted savings improve. Acceptance is strict-improvement
	// only, so the search is a monotone descent and terminates. Without
	// this escape, raising the budget can lower the predicted speedup.
	localSearch := func(plans []PhasePlan, levels []approx.Config) ([]PhasePlan, []approx.Config) {
		// One candidate buffer per call: a rejected candidate is
		// overwritten by the next rung, an accepted one swaps roles with
		// the plan it replaces.
		cand := make([]PhasePlan, len(plans))
		candLevels := make([]approx.Config, len(levels))
		for pass := 0; pass < t.Phases+1; pass++ {
			improved := false
			for _, ph := range order {
				cur := plans[ph].Degradation
				if cur == 0 {
					continue
				}
				// Candidate rungs: the accurate floor, then every ladder
				// rung strictly cheaper than the current one (a NaN
				// degradation never is).
				ladder := menus[ph].ladder
				for k := -1; k < len(ladder); k++ {
					r := phaseChoice{cfg: menus[ph].accurate, spd: 1, deg: 0}
					if k >= 0 {
						if r = ladder[k]; !(r.deg < cur) {
							continue
						}
					}
					copy(cand, plans)
					copy(candLevels, levels)
					cand[ph] = PhasePlan{Phase: ph, Levels: r.cfg, Budget: r.deg, Speedup: r.spd, Degradation: r.deg}
					candLevels[ph] = r.cfg
					candLeft := budget - totalDeg(cand)
					if candLeft < 0 {
						continue
					}
					refill(cand, candLevels, candLeft, ph)
					// The pin kept the downgraded phase from instantly
					// reverting; once the other phases have drawn from the
					// pool, the remainder is offered to every phase — the
					// pinned one included — so no candidate ships dominated
					// (stuck below a rung it can still afford).
					if rem := budget - totalDeg(cand); rem > 1e-9 {
						refill(cand, candLevels, rem, -1)
					}
					if totalSavings(cand) > totalSavings(plans)+1e-12 {
						plans, cand = cand, plans
						levels, candLevels = candLevels, levels
						improved = true
						obs.Inc("core.optimize.reallocations")
						// plans changed: the remaining rungs were computed
						// against the old plan, so restart this phase's
						// moves on the next pass.
						break
					}
				}
			}
			if !improved {
				break
			}
		}
		// Leave at an unpinned refill fixpoint: every phase has been
		// offered the final leftover, so the returned plan is never
		// dominated by a pure upgrade.
		if rem := budget - totalDeg(plans); rem > 1e-9 {
			refill(plans, levels, rem, -1)
		}
		return plans, levels
	}

	// Start 1 — the paper's share-based allocation: walk the phases in
	// ROI order handing each its normROI·budget share plus any carried
	// leftover (shares sum to 1, so carrying unused sub-budget forward
	// redistributes leftovers exactly as the paper describes).
	sharePlans := make([]PhasePlan, t.Phases)
	shareLevels := make([]approx.Config, t.Phases)
	leftover := 0.0
	for _, ph := range order {
		phaseBudget := budget*shares[ph] + leftover
		c := menus[ph].query(phaseBudget)
		shareLevels[ph] = c.cfg
		sharePlans[ph] = PhasePlan{Phase: ph, Levels: c.cfg, Budget: phaseBudget, Speedup: c.spd, Degradation: c.deg}
		leftover = phaseBudget - c.deg
		if leftover < 0 {
			leftover = 0
		}
	}
	refill(sharePlans, shareLevels, leftover, -1)
	sharePlans, shareLevels = localSearch(sharePlans, shareLevels)

	// Start 2 — pooled: begin all-accurate and let refill hand the whole
	// budget out in ROI order. The two starts reach different local
	// optima; keep the better plan.
	poolPlans := make([]PhasePlan, t.Phases)
	poolLevels := make([]approx.Config, t.Phases)
	for ph := range poolPlans {
		poolPlans[ph] = PhasePlan{Phase: ph, Levels: menus[ph].accurate, Speedup: 1}
		poolLevels[ph] = menus[ph].accurate
	}
	refill(poolPlans, poolLevels, budget, -1)
	poolPlans, poolLevels = localSearch(poolPlans, poolLevels)

	plans, levels := sharePlans, shareLevels
	if totalSavings(poolPlans) > totalSavings(plans)+1e-12 {
		plans, levels = poolPlans, poolLevels
	}
	// The winning level rows alias menu internals (phaseMenu.accurate and
	// ladder cfg slices) and are shared between the schedule and the
	// per-phase plans. Clone each row for each artifact so a caller
	// mutating sched.Levels cannot corrupt Prediction.PerPhase (or vice
	// versa).
	sched := approx.UniformSchedule(t.Phases, make(approx.Config, len(t.Blocks)))
	sched.Levels = make([]approx.Config, t.Phases)
	for ph, lv := range levels {
		sched.Levels[ph] = lv.Clone()
		plans[ph].Levels = plans[ph].Levels.Clone()
	}

	pred := Prediction{PerPhase: plans}
	savings := totalSavings(plans)
	pred.Degradation = totalDeg(plans)
	// Per-phase models predict full-app speedup with only that phase
	// approximated; the savings compose additively, the speedups do not.
	if savings > 0.95 {
		savings = 0.95
	}
	if savings < -4 {
		savings = -4
	}
	pred.Speedup = 1 / (1 - savings)
	return sched, pred
}

// phaseChoice is one rung of a phase's upgrade ladder: the best predicted
// configuration affordable at degradation deg.
type phaseChoice struct {
	cfg approx.Config
	spd float64
	deg float64
}

// phaseMenu is a phase's configuration space collapsed into an upgrade
// ladder: entries have strictly increasing degradation AND strictly
// increasing speedup, so "the best configuration whose conservative
// degradation fits budget b" is the last entry with deg <= b.
type phaseMenu struct {
	ladder []phaseChoice
	// accurate is the all-zero configuration, the ladder's implicit floor.
	accurate approx.Config
}

// query returns the best configuration affordable at the given budget; the
// accurate configuration (speedup 1, degradation 0) is the floor.
func (m phaseMenu) query(budget float64) phaseChoice {
	lo, hi := 0, len(m.ladder) // first ladder index with deg > budget
	for lo < hi {
		mid := (lo + hi) / 2
		if m.ladder[mid].deg <= budget {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return phaseChoice{cfg: m.accurate, spd: 1, deg: 0}
	}
	return m.ladder[lo-1]
}

// OracleResult is the outcome of the phase-agnostic exhaustive search.
type OracleResult struct {
	Config approx.Config
	// Speedup and Degradation are measured, not predicted: the oracle
	// actually runs every configuration (paper §5.3 calls this the
	// idealized best achievable phase-agnostic result).
	Speedup     float64
	Degradation float64
	// Evaluated is the number of configurations run.
	Evaluated int
}

// PhaseAgnosticOracle exhaustively measures every uniform (whole-run)
// configuration and returns the one with the highest measured speedup
// whose measured degradation fits the budget — the paper's baseline from
// prior work (Sidiroglou et al., Sui et al.).
func PhaseAgnosticOracle(runner *apps.Runner, p apps.Params, budget float64) (OracleResult, error) {
	res := OracleResult{Config: make(approx.Config, len(runner.App.Blocks())), Speedup: 1}
	var firstErr error
	approx.EnumerateConfigs(runner.App.Blocks(), func(cfg approx.Config) bool {
		if cfg.IsAccurate() {
			return true
		}
		ev, err := runner.Evaluate(p, approx.UniformSchedule(1, cfg))
		if err != nil {
			firstErr = err
			return false
		}
		res.Evaluated++
		if ev.Degradation <= budget && ev.Speedup > res.Speedup {
			res.Config = cfg
			res.Speedup = ev.Speedup
			res.Degradation = ev.Degradation
		}
		return true
	})
	if firstErr != nil {
		return OracleResult{}, firstErr
	}
	return res, nil
}

// Evaluate measures a schedule for real and reports measured speedup,
// degradation and work saved — used to score OPPROX's chosen schedule the
// same way the oracle is scored.
func Evaluate(runner *apps.Runner, p apps.Params, sched approx.Schedule) (*apps.Eval, error) {
	return runner.Evaluate(p, sched)
}

// WorkSaved converts a speedup into the "% less work" the abstract quotes.
func WorkSaved(speedup float64) float64 {
	if speedup <= 0 {
		return 0
	}
	return 100 * (1 - 1/speedup)
}
