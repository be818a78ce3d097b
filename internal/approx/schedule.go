package approx

import (
	"fmt"
	"strings"
)

// Schedule is a phase-aware approximation plan: for each of Phases
// contiguous segments of the outer loop, one AL configuration.
// This is OPPROX's output artifact — the phase-specific approximation
// settings passed to the application (paper §4.2 passes them via
// environment variables; here they travel as a value).
type Schedule struct {
	Phases int
	// Levels[p] is the AL configuration active during phase p.
	Levels []Config
}

// UniformSchedule applies the same configuration in every phase — the
// phase-agnostic setting prior work uses.
func UniformSchedule(phases int, cfg Config) Schedule {
	levels := make([]Config, phases)
	for p := range levels {
		levels[p] = cfg.Clone()
	}
	return Schedule{Phases: phases, Levels: levels}
}

// AccurateSchedule is the all-zeros single-phase schedule (the exact run).
func AccurateSchedule(nBlocks int) Schedule {
	return UniformSchedule(1, make(Config, nBlocks))
}

// SinglePhaseSchedule approximates with cfg only in phase `active` out of
// `phases`, running every other phase accurately — the probe the paper
// uses to characterize per-phase sensitivity (§5.1).
func SinglePhaseSchedule(phases, active int, cfg Config) Schedule {
	levels := make([]Config, phases)
	for p := range levels {
		if p == active {
			levels[p] = cfg.Clone()
		} else {
			levels[p] = make(Config, len(cfg))
		}
	}
	return Schedule{Phases: phases, Levels: levels}
}

// Validate checks phase count and every per-phase config.
func (s Schedule) Validate(blocks []Block) error {
	if s.Phases < 1 {
		return fmt.Errorf("approx: schedule needs >= 1 phase, has %d", s.Phases)
	}
	if len(s.Levels) != s.Phases {
		return fmt.Errorf("approx: schedule has %d phase configs for %d phases", len(s.Levels), s.Phases)
	}
	for p, cfg := range s.Levels {
		if err := cfg.Validate(blocks); err != nil {
			return fmt.Errorf("phase %d: %w", p, err)
		}
	}
	return nil
}

// IsAccurate reports whether the schedule performs no approximation at all.
func (s Schedule) IsAccurate() bool {
	for _, cfg := range s.Levels {
		if !cfg.IsAccurate() {
			return false
		}
	}
	return true
}

// LevelsAt returns the configuration for phase p, clamping out-of-range
// phases to the nearest valid phase (a convergence loop may run longer
// than the baseline used to lay out the phases; extra iterations belong to
// the final phase).
func (s Schedule) LevelsAt(p int) Config {
	if p < 0 {
		p = 0
	}
	if p >= s.Phases {
		p = s.Phases - 1
	}
	return s.Levels[p]
}

// Level returns the AL of one block during one phase.
func (s Schedule) Level(phase, block int) int { return s.LevelsAt(phase)[block] }

// String renders like "p0=[0 0] p1=[2 1]".
func (s Schedule) String() string {
	parts := make([]string, s.Phases)
	for p, cfg := range s.Levels {
		parts[p] = fmt.Sprintf("p%d=%s", p, cfg)
	}
	return strings.Join(parts, " ")
}

// PhaseOf maps an outer-loop iteration index (0-based) to its phase, given
// the baseline (accurate-run) iteration count the phases were laid out
// over. Phases are equal blocks of baselineIters/phases iterations, with
// the remainder — and any iterations beyond the baseline — attributed to
// the final phase (paper §3.5, footnote 2).
func PhaseOf(iter, baselineIters, phases int) int {
	if phases <= 1 {
		return 0
	}
	p := iter / phaseSize(baselineIters, phases)
	if p >= phases {
		p = phases - 1
	}
	if p < 0 {
		p = 0
	}
	return p
}

// PhaseStart is the inverse of PhaseOf: the first iteration of phase ph
// (clamped to [0, phases-1]) under the same layout, so
// PhaseOf(PhaseStart(ph)) == ph and PhaseOf(PhaseStart(ph)-1) == ph-1.
func PhaseStart(ph, baselineIters, phases int) int {
	if phases <= 1 || ph <= 0 {
		return 0
	}
	if ph >= phases {
		ph = phases - 1
	}
	return ph * phaseSize(baselineIters, phases)
}

// phaseSize is the iteration count of every phase but the last.
func phaseSize(baselineIters, phases int) int {
	if baselineIters < 1 {
		baselineIters = 1
	}
	if size := baselineIters / phases; size > 1 {
		return size
	}
	return 1
}
