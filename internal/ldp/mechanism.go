// Package ldp implements the local-differential-privacy substrate for the
// paper's §V/§VI-E case study: numeric mean-estimation mechanisms (Duchi
// et al. and the Piecewise Mechanism), a generalized-randomized-response
// frequency oracle, the Expectation-Maximization Filter (EMF) baseline of
// Du et al. (ICDE 2023), and the manipulation attacks of Cheu et al.
// (S&P 2021) that the defense is evaluated against.
//
// All mechanisms operate on the normalized input domain [−1, 1], matching
// the paper's preprocessing of the Taxi dataset.
package ldp

import (
	"fmt"
	"math/rand"
)

// InputLo and InputHi bound the honest input domain.
const (
	InputLo = -1.0
	InputHi = 1.0
)

// Mechanism is a numeric ε-LDP mechanism for mean estimation over [−1, 1].
type Mechanism interface {
	// Perturb randomizes one true value x ∈ [−1,1]. The output is an
	// unbiased report whose support is given by OutputBounds.
	Perturb(rng *rand.Rand, x float64) float64
	// OutputBounds returns the support [lo, hi] of reports.
	OutputBounds() (lo, hi float64)
	// MeanEstimate aggregates reports into an estimate of the true mean.
	MeanEstimate(reports []float64) float64
	// Epsilon returns the privacy budget the mechanism was built with.
	Epsilon() float64
}

// SumMeanEstimator is implemented by mechanisms whose MeanEstimate depends
// on the reports only through their count and sum — true for Duchi and
// Piecewise, whose reports are individually unbiased so the aggregate is
// the sample mean. A distributed collector (internal/collect cluster games)
// requires this capability: shards then only ship running sums and counts,
// never raw reports.
type SumMeanEstimator interface {
	// MeanEstimateFromSum returns the mean estimate for n reports whose
	// values sum to sum. Must equal MeanEstimate on the same reports.
	MeanEstimateFromSum(sum float64, n int) float64
}

// InputClamper is implemented by mechanisms whose honest input domain is
// not the default [−1, 1] — GRRValue's ordinal category domain {0, …, k−1},
// for instance. The input-manipulation attack clamps its forged inputs
// through it, so a forged "high percentile" input lands on a legal category
// instead of being crushed into [−1, 1].
type InputClamper interface {
	// ClampInput forces x into the mechanism's honest input domain.
	ClampInput(x float64) float64
}

// minEpsilon and maxEpsilon bound the privacy budgets the mechanisms
// accept. Beyond them e^ε (Duchi, GRR) or e^(ε/2) (Piecewise) rounds to 1
// or overflows in float64, and an output bound or a keep probability
// becomes infinite or NaN.
const (
	minEpsilon = 1e-9
	maxEpsilon = 500.0
)

// checkEpsilon validates a privacy budget.
func checkEpsilon(eps float64) error {
	if !(eps >= minEpsilon && eps <= maxEpsilon) {
		return fmt.Errorf("ldp: epsilon %v outside [%g, %g]", eps, minEpsilon, maxEpsilon)
	}
	return nil
}

// clampInput forces x into the honest input domain. Honest users always
// hold in-domain values; the clamp guards against float drift.
func clampInput(x float64) float64 {
	if x < InputLo {
		return InputLo
	}
	if x > InputHi {
		return InputHi
	}
	return x
}
