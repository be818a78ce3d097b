// Package core implements OPPROX itself (paper §3): offline training —
// sampling the application on representative inputs, identifying the phase
// granularity (Algorithm 1), and building per-phase speedup/QoS/iteration
// models — plus the runtime optimizer that splits a user's QoS-degradation
// budget across phases by return-on-investment and picks the most
// profitable approximation levels per phase (Algorithm 2). The
// phase-agnostic exhaustive oracle the paper compares against (§5.3) is
// also here.
package core

import "fmt"

// BudgetPolicy selects how the optimizer splits the overall QoS budget
// across phases.
type BudgetPolicy int

const (
	// BudgetPolicyROI allocates each phase a share proportional to its
	// normalized return on investment (paper §3.8, Eq. 1).
	BudgetPolicyROI BudgetPolicy = iota
	// BudgetPolicyUniform splits the budget evenly — the ablation
	// baseline for the ROI policy.
	BudgetPolicyUniform
)

// String names the policy in reports.
func (p BudgetPolicy) String() string {
	switch p {
	case BudgetPolicyROI:
		return "roi"
	case BudgetPolicyUniform:
		return "uniform"
	default:
		return fmt.Sprintf("BudgetPolicy(%d)", int(p))
	}
}

// Options configures training and optimization. The zero value is not
// usable; start from DefaultOptions.
type Options struct {
	// Seed drives every random choice during training.
	Seed int64

	// Phases fixes the phase count; 0 means run Algorithm 1 to find it.
	Phases int
	// MaxPhases bounds Algorithm 1's doubling search.
	MaxPhases int
	// PhaseThreshold is Algorithm 1's sensitivity threshold: doubling
	// stops when the max consecutive-phase QoS difference changes by less
	// than this many percentage points.
	PhaseThreshold float64

	// JointSamplesPerPhase is the number of random sparse multi-block
	// configurations sampled per (input combo, phase) (paper §3.3).
	JointSamplesPerPhase int
	// MaxParamCombos caps the cartesian product of representative input
	// values used for training; 0 means use all combos.
	MaxParamCombos int

	// TargetR2 is the cross-validated R² at which the degree search stops
	// (paper §3.7).
	TargetR2 float64
	// MaxPolyDegree bounds the polynomial degree search.
	MaxPolyDegree int
	// Folds is the k of k-fold cross validation.
	Folds int

	// UseMIC enables MIC-based feature filtering (paper §3.7).
	UseMIC bool
	// MICThreshold drops features whose MIC with the target is below it.
	MICThreshold float64

	// UseConfidence enables conservative confidence-interval predictions
	// (paper §3.6): upper bound for QoS degradation, lower for speedup.
	UseConfidence bool
	// ConfidenceP is the confidence level (paper uses p=0.99).
	ConfidenceP float64

	// UseIterFeature feeds the estimated outer-loop iteration count into
	// the global models as an explicit feature (paper §3.6).
	UseIterFeature bool

	// BudgetPolicy selects the per-phase budget split.
	BudgetPolicy BudgetPolicy

	// UsableDegradation is the QoS degradation above which a sampled
	// setting is considered unusable and excluded from model fitting and
	// ROI, mirroring the paper's sensitivity profiling (§3.1).
	UsableDegradation float64

	// ExpandFeatures widens every model's raw feature vector with derived
	// terms (log-compressed magnitudes and pairwise products,
	// poly.SpaceExpansion) before MIC filtering and fitting — the
	// space-expanded feature set of Nikkhah et al. (PAPERS.md). The MIC
	// filter prunes the widened basis back down (capped at
	// maxExpandedKeep), so the models earn tighter confidence bands
	// without the degree search exploding.
	ExpandFeatures bool

	// Parallelism bounds the worker pool that executes training runs;
	// 0 uses all CPUs. Sampling dominates training time and every run is
	// an independent pure function, so parallel execution is bit-for-bit
	// identical to sequential.
	Parallelism int
}

// DefaultOptions returns the configuration used throughout the paper's
// evaluation: auto phase search up to 8 phases, p=0.99 confidence, R²
// target 0.9, 10-fold cross validation.
func DefaultOptions() Options {
	return Options{
		Seed:                 1,
		Phases:               0,
		MaxPhases:            8,
		PhaseThreshold:       2.0,
		JointSamplesPerPhase: 24,
		MaxParamCombos:       0,
		TargetR2:             0.9,
		MaxPolyDegree:        4,
		Folds:                10,
		UseMIC:               true,
		MICThreshold:         0.08,
		UseConfidence:        true,
		ConfidenceP:          0.99,
		UseIterFeature:       true,
		BudgetPolicy:         BudgetPolicyROI,
		UsableDegradation:    80,
	}
}

// validate normalizes and checks option values.
func (o *Options) validate() error {
	if o.MaxPhases < 2 {
		o.MaxPhases = 2
	}
	if o.Phases < 0 {
		return fmt.Errorf("core: negative phase count %d", o.Phases)
	}
	if o.JointSamplesPerPhase < 1 {
		return fmt.Errorf("core: JointSamplesPerPhase must be >= 1, got %d", o.JointSamplesPerPhase)
	}
	if o.TargetR2 <= 0 || o.TargetR2 > 1 {
		return fmt.Errorf("core: TargetR2 must be in (0,1], got %g", o.TargetR2)
	}
	if o.MaxPolyDegree < 1 {
		return fmt.Errorf("core: MaxPolyDegree must be >= 1, got %d", o.MaxPolyDegree)
	}
	if o.Folds < 2 {
		return fmt.Errorf("core: Folds must be >= 2, got %d", o.Folds)
	}
	if o.ConfidenceP <= 0 || o.ConfidenceP > 1 {
		return fmt.Errorf("core: ConfidenceP must be in (0,1], got %g", o.ConfidenceP)
	}
	return nil
}
