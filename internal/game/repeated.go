package game

import (
	"fmt"
	"math"
)

// RepeatedParams parameterize the infinitely repeated collection game of §V
// with the paper's non-deterministic-utility setting.
type RepeatedParams struct {
	GC float64 // g_c = T̄ − P − T : collector's roundwise cooperation gain
	GA float64 // g_a = P         : adversary's roundwise cooperation gain
	D  float64 // d ∈ (0,1)       : roundwise discount rate of data utility
	P  float64 // p ∈ [0,1]       : P(judged compliant | defected), the LDP noise effect
}

// Validate checks parameter ranges.
func (rp RepeatedParams) Validate() error {
	if !(rp.D > 0 && rp.D < 1) {
		return fmt.Errorf("game: discount d = %v outside (0,1)", rp.D)
	}
	if rp.P < 0 || rp.P > 1 {
		return fmt.Errorf("game: detection-miss probability p = %v outside [0,1]", rp.P)
	}
	return nil
}

// GAC returns g_ac = (g_a + g_c)/2, the symmetric roundwise gain the
// equilibrium analysis centers on (the paper's symmetry axiom).
func (rp RepeatedParams) GAC() float64 { return (rp.GA + rp.GC) / 2 }

// MaxDelta returns the Theorem 3 bound: the adversary complies in the
// Tit-for-tat game iff the collector's utility compromise δ satisfies
// δ < (d − d·p)/(1 − d·p) · g_ac.
func (rp RepeatedParams) MaxDelta() (float64, error) {
	if err := rp.Validate(); err != nil {
		return 0, err
	}
	return (rp.D - rp.D*rp.P) / (1 - rp.D*rp.P) * rp.GAC(), nil
}

// Complies reports whether the adversary's rational choice is compliance
// under compromise delta (Theorem 3).
//
//trimlint:allow deadexport reproduction evidence: the analytical model's tests pin the paper's game theory with it
func (rp RepeatedParams) Complies(delta float64) (bool, error) {
	maxD, err := rp.MaxDelta()
	if err != nil {
		return false, err
	}
	return delta < maxD, nil
}

// GainComply returns the adversary's discounted gain expectation when
// complying: g_com = g0 / (1 − d), with g0 = g_ac − δ (equation 10).
func (rp RepeatedParams) GainComply(delta float64) float64 {
	return (rp.GAC() - delta) / (1 - rp.D)
}

// GainDefect returns the adversary's discounted gain expectation when
// defecting: g_def = g_ac / (1 − d·p) (equation 11).
func (rp RepeatedParams) GainDefect() float64 {
	return rp.GAC() / (1 - rp.D*rp.P)
}

// SimulateComply numerically accumulates the complying adversary's
// discounted gain over n rounds, converging to GainComply as n → ∞. It
// exists so tests can verify the closed forms of equations 10-11 against
// explicit summation.
//
//trimlint:allow deadexport reproduction evidence: the analytical model's tests pin the paper's game theory with it
func (rp RepeatedParams) SimulateComply(delta float64, n int) float64 {
	g0 := rp.GAC() - delta
	var sum, w float64 = 0, 1
	for i := 0; i < n; i++ {
		sum += w * g0
		w *= rp.D
	}
	return sum
}

// SimulateDefect numerically accumulates the defecting adversary's expected
// discounted gain over n rounds: each round the defector is re-admitted
// with probability p, so the round-i weight is (d·p)^i.
//
//trimlint:allow deadexport reproduction evidence: the analytical model's tests pin the paper's game theory with it
func (rp RepeatedParams) SimulateDefect(n int) float64 {
	var sum, w float64 = 0, 1
	for i := 0; i < n; i++ {
		sum += w * rp.GAC()
		w *= rp.D * rp.P
	}
	return sum
}

// TerminationProbability returns the probability that a Tit-for-tat game
// with per-round false-trigger probability fp has terminated by round n:
// 1 − (1−fp)^n. §V-B's motivation for the Elastic strategy is that this
// converges to 1 for any fp > 0.
//
//trimlint:allow deadexport reproduction evidence: the analytical model's tests pin the paper's game theory with it
func TerminationProbability(fp float64, n int) (float64, error) {
	if fp < 0 || fp > 1 {
		return 0, fmt.Errorf("game: false-positive rate %v outside [0,1]", fp)
	}
	if n < 0 {
		return 0, fmt.Errorf("game: negative round count %d", n)
	}
	return 1 - math.Pow(1-fp, float64(n)), nil
}
