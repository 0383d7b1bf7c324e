package sim

import (
	"fmt"
	"math"

	"abftckpt/internal/dist"
)

// Adaptive-precision execution: instead of spending a fixed replica budget
// per cell, Simulate with Options.Precision runs replicas in doubling
// batches and stops as soon as the waste confidence interval is tight
// enough, hard-capped at cfg.Reps. The interval is anytime-valid
// (stats.Sequential spends its error budget across looks at the
// law-of-iterated-logarithm rate), so the CI reported at the data-dependent
// stopping time is an honest one — pinned empirically by the coverage
// meta-tests in adaptive_test.go.
//
// When the failure law is exponential, the analytic model's makespan
// prediction H (Precision.ModelTFinal) powers a control variate: the number
// of failure arrivals in [0, H] is Poisson with exactly known mean H/MTBF
// and is strongly correlated with the replica's waste, so the
// regression-adjusted estimator needs fewer replicas for the same width.

// DefaultAdaptiveBatch is the default first batch size; batches double at
// every look so the number of looks stays logarithmic in the replica count.
const DefaultAdaptiveBatch = 64

// Precision configures adaptive-precision execution. At least one of
// RelTarget/AbsTarget must be positive.
type Precision struct {
	// RelTarget stops once the waste CI half-width falls to
	// RelTarget * |estimate|; 0 disables the relative criterion.
	RelTarget float64
	// AbsTarget stops once the half-width falls to AbsTarget (absolute
	// waste, i.e. a fraction in [0, 1]); 0 disables the absolute criterion.
	AbsTarget float64
	// Batch is the first batch size (default DefaultAdaptiveBatch); batches
	// double after every look.
	Batch int
	// Confidence is the CI level of the stopping rule and of the reported
	// interval (default 0.95).
	Confidence float64
	// ModelTFinal is the analytic model's predicted makespan for this
	// configuration; a positive value enables the control variate under an
	// exponential law. The timeline walker counts each replica's failure
	// arrivals up to this horizon, a Poisson count with exactly known mean.
	ModelTFinal float64
	// DisableControlVariate forces plain estimation even when ModelTFinal
	// would enable the control variate.
	DisableControlVariate bool
	// KeepReplicas records every replica's waste in AdaptiveAggregate.Replicas
	// so callers can form paired-difference CIs across runs sharing traces.
	KeepReplicas bool
}

func (p Precision) withDefaults() Precision {
	if p.Batch <= 0 {
		p.Batch = DefaultAdaptiveBatch
	}
	if p.Confidence <= 0 || p.Confidence >= 1 {
		p.Confidence = 0.95
	}
	return p
}

// Validate checks the precision block for nonsensical values.
func (p Precision) Validate() error {
	if math.IsNaN(p.RelTarget) || math.IsInf(p.RelTarget, 0) || p.RelTarget < 0 {
		return fmt.Errorf("sim: precision rel target %v must be finite and non-negative", p.RelTarget)
	}
	if math.IsNaN(p.AbsTarget) || math.IsInf(p.AbsTarget, 0) || p.AbsTarget < 0 {
		return fmt.Errorf("sim: precision abs target %v must be finite and non-negative", p.AbsTarget)
	}
	if p.RelTarget == 0 && p.AbsTarget == 0 {
		return fmt.Errorf("sim: precision needs a relative or absolute half-width target")
	}
	if p.Confidence != 0 && (p.Confidence <= 0 || p.Confidence >= 1) {
		return fmt.Errorf("sim: precision confidence %v must be in (0, 1)", p.Confidence)
	}
	if math.IsNaN(p.ModelTFinal) || p.ModelTFinal < 0 {
		return fmt.Errorf("sim: precision model tfinal %v must be non-negative", p.ModelTFinal)
	}
	return nil
}

// AdaptiveAggregate is Simulate's result: Aggregate extended with the
// adaptive run's statistics. The embedded Aggregate summarizes exactly the
// replicas that ran (Runs <= RepsCap); its Waste.CI95 is the naive fixed-n
// half-width, while WasteEstimate/WasteHalfWidth are the sequential
// procedure's honest values (optional-stopping-valid,
// control-variate-adjusted) — report those.
type AdaptiveAggregate struct {
	Aggregate
	// RepsCap is the configured hard cap (cfg.Reps).
	RepsCap int
	// Looks counts the interim analyses performed.
	Looks int
	// Stopped reports that the precision target was met (false: the run
	// exhausted RepsCap first).
	Stopped bool
	// WasteEstimate is the reported waste estimate: the control-variate
	// adjusted mean when the CV is active, the plain mean otherwise.
	WasteEstimate float64
	// WasteHalfWidth is the anytime-valid CI half-width at the final look.
	WasteHalfWidth float64
	// CVActive reports whether the control variate was in effect.
	CVActive bool
	// CVBeta is the fitted control-variate coefficient (0 when inactive).
	CVBeta float64
	// CVVarianceRatio estimates Var(adjusted)/Var(plain) in (0, 1]; 1 when
	// the CV is inactive.
	CVVarianceRatio float64
	// Replicas holds each replica's waste in repetition order when
	// Precision.KeepReplicas was set (nil otherwise).
	Replicas []float64
}

// cvHorizonFor resolves the control-variate horizon: positive only when the
// CV is usable — an exponential law (the arrival count over a fixed window
// is Poisson with exactly known mean; no closed-form renewal function exists
// for the other laws) with a model prediction available. The horizon is
// clipped to the run's safety cap.
func cvHorizonFor(distrib dist.Distribution, prec Precision, hardCap float64) float64 {
	if prec.DisableControlVariate || prec.ModelTFinal <= 0 || math.IsInf(prec.ModelTFinal, 0) {
		return 0
	}
	if _, ok := distrib.(dist.Exponential); !ok {
		return 0
	}
	return math.Min(prec.ModelTFinal, hardCap)
}
