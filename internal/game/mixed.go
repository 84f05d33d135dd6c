package game

import (
	"fmt"
	"math"

	"repro/internal/stats"
)

// MixedStrategy is a probability distribution over a player's pure
// strategies.
type MixedStrategy []float64

// Validate checks the distribution sums to 1 and is non-negative.
func (m MixedStrategy) Validate() error {
	var s float64
	for i, p := range m {
		if p < 0 || math.IsNaN(p) {
			return fmt.Errorf("game: mixed strategy weight[%d] = %v", i, p)
		}
		s += p
	}
	if math.Abs(s-1) > 1e-9 {
		return fmt.Errorf("game: mixed strategy sums to %v", s)
	}
	return nil
}

// ExpectedPayoffs returns both players' expected payoffs when the row
// player mixes with x and the column player with y.
//
//trimlint:allow deadexport reproduction evidence: the analytical model's tests pin the paper's game theory with it
func (g *Bimatrix) ExpectedPayoffs(x, y MixedStrategy) (float64, float64, error) {
	if len(x) != g.Rows() || len(y) != g.Cols() {
		return 0, 0, fmt.Errorf("game: mixed strategy lengths %d/%d for %d×%d game",
			len(x), len(y), g.Rows(), g.Cols())
	}
	if err := x.Validate(); err != nil {
		return 0, 0, err
	}
	if err := y.Validate(); err != nil {
		return 0, 0, err
	}
	var u1, u2 float64
	for i := range g.P1 {
		for j := range g.P1[i] {
			w := x[i] * y[j]
			u1 += w * g.P1[i][j]
			u2 += w * g.P2[i][j]
		}
	}
	return u1, u2, nil
}

// EndpointMix is the paper's §III-C2 reduction: any poison value (or value
// distribution) on the domain [xL, xR] is equivalent to a mixed strategy
// over the endpoints, x = pL·xL + pR·xR with pL + pR = 1.
type EndpointMix struct {
	XL, XR float64
	PL, PR float64
}

// ReducePoint expresses a single point x ∈ [xL, xR] as an endpoint mix.
func ReducePoint(x, xL, xR float64) (EndpointMix, error) {
	if !(xL < xR) {
		return EndpointMix{}, fmt.Errorf("game: domain [%v, %v] is empty", xL, xR)
	}
	if x < xL || x > xR {
		return EndpointMix{}, fmt.Errorf("game: point %v outside [%v, %v]", x, xL, xR)
	}
	pR := (x - xL) / (xR - xL)
	return EndpointMix{XL: xL, XR: xR, PL: 1 - pR, PR: pR}, nil
}

// ReduceDistribution expresses an arbitrary poison-value sample over
// [xL, xR] as an endpoint mix with the same mean — the additive-payoff
// argument of §III-C2. Values outside the domain are clamped, mirroring the
// paper's observation that a rational adversary never plays outside
// [xL, xR].
//
//trimlint:allow deadexport reproduction evidence: the analytical model's tests pin the paper's game theory with it
func ReduceDistribution(xs []float64, xL, xR float64) (EndpointMix, error) {
	if len(xs) == 0 {
		return EndpointMix{}, stats.ErrEmpty
	}
	if !(xL < xR) {
		return EndpointMix{}, fmt.Errorf("game: domain [%v, %v] is empty", xL, xR)
	}
	var sum float64
	for _, x := range xs {
		sum += stats.Clamp(x, xL, xR)
	}
	return ReducePoint(sum/float64(len(xs)), xL, xR)
}

// Value returns the point the mix represents, pL·xL + pR·xR.
//
//trimlint:allow deadexport reproduction evidence: the analytical model's tests pin the paper's game theory with it
func (m EndpointMix) Value() float64 {
	return m.PL*m.XL + m.PR*m.XR
}

// ExpectedPayoff evaluates a payoff function that is linear-in-position
// under the mix. For any affine payoff this equals payoff(m.Value()) —
// the property the paper's completeness argument relies on, covered by
// property tests.
//
//trimlint:allow deadexport reproduction evidence: the analytical model's tests pin the paper's game theory with it
func (m EndpointMix) ExpectedPayoff(payoff func(x float64) float64) float64 {
	return m.PL*payoff(m.XL) + m.PR*payoff(m.XR)
}
