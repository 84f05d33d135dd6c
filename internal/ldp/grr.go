package ldp

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/stats"
)

// GRR is generalized randomized response (k-ary randomized response), the
// frequency-oracle building block used by the ablation benches and by tests
// of the EM machinery: report the true category with probability
// e^ε/(e^ε+k−1), otherwise a uniformly random other category.
type GRR struct {
	eps float64
	k   int
	p   float64 // truthful probability
	q   float64 // per-other-category probability
}

// NewGRR builds a k-ary randomized-response mechanism.
func NewGRR(eps float64, k int) (*GRR, error) {
	if err := checkEpsilon(eps); err != nil {
		return nil, err
	}
	if k < 2 {
		return nil, fmt.Errorf("ldp: GRR needs ≥2 categories, got %d", k)
	}
	e := math.Exp(eps)
	p := e / (e + float64(k) - 1)
	return &GRR{eps: eps, k: k, p: p, q: (1 - p) / float64(k-1)}, nil
}

// Perturb randomizes category v ∈ [0, k).
func (g *GRR) Perturb(rng *rand.Rand, v int) (int, error) {
	if v < 0 || v >= g.k {
		return 0, fmt.Errorf("ldp: GRR category %d outside [0,%d)", v, g.k)
	}
	if rng.Float64() < g.p {
		return v, nil
	}
	// Uniform over the k−1 other categories.
	o := rng.Intn(g.k - 1)
	if o >= v {
		o++
	}
	return o, nil
}

// GRRValue adapts GRR to the numeric Mechanism interface over the ordinal
// category domain {0, …, k−1}: inputs are category indices embedded in
// float64 (rounded to the nearest category and clamped into the domain),
// reports are the randomized category as float64. It is the mechanism shape
// the collection games and the shard-local data plane consume — pure
// function of (ε, k), so it is wire-codable (arrival.MechGRR) and a cluster
// worker can re-instantiate it from two scalars.
//
// The mean inversion uses the channel's linearity on ordinal categories:
// E[report | true = v] = p·v + q·(S − v) with S = Σ categories = k(k−1)/2,
// so v̂ = (r̄ − q·S)/(p − q) is unbiased for the true category mean.
type GRRValue struct {
	g *GRR
}

// NewGRRValue builds the numeric adapter over a k-ary GRR.
func NewGRRValue(eps float64, k int) (*GRRValue, error) {
	g, err := NewGRR(eps, k)
	if err != nil {
		return nil, err
	}
	return &GRRValue{g: g}, nil
}

// Epsilon returns the privacy budget.
func (m *GRRValue) Epsilon() float64 { return m.g.eps }

// K returns the category count.
func (m *GRRValue) K() int { return m.g.k }

// OutputBounds returns the report support [0, k−1].
func (m *GRRValue) OutputBounds() (lo, hi float64) { return 0, float64(m.g.k - 1) }

// ClampInput rounds x to the nearest category and clamps it into [0, k).
func (m *GRRValue) ClampInput(x float64) float64 { return float64(m.category(x)) }

// category rounds and clamps a float input to a category index.
func (m *GRRValue) category(x float64) int {
	v := int(math.Round(x))
	if v < 0 {
		v = 0
	}
	if v >= m.g.k {
		v = m.g.k - 1
	}
	return v
}

// Perturb randomizes the category nearest to x through the GRR channel.
func (m *GRRValue) Perturb(rng *rand.Rand, x float64) float64 {
	out, err := m.g.Perturb(rng, m.category(x))
	if err != nil { // unreachable: category() is always in [0, k)
		panic(err)
	}
	return float64(out)
}

// MeanEstimate aggregates reports into an unbiased estimate of the true
// category mean.
func (m *GRRValue) MeanEstimate(reports []float64) float64 {
	var sum float64
	for _, r := range reports {
		sum += r
	}
	return m.MeanEstimateFromSum(sum, len(reports))
}

// MeanEstimateFromSum is the sum-decomposable form of MeanEstimate — the
// capability the distributed collector requires (SumMeanEstimator).
func (m *GRRValue) MeanEstimateFromSum(sum float64, n int) float64 {
	if n == 0 {
		return math.NaN()
	}
	s := float64(m.g.k) * float64(m.g.k-1) / 2
	return (sum/float64(n) - m.g.q*s) / (m.g.p - m.g.q)
}

// EstimateFrequencies inverts the randomized-response channel: given report
// counts per category, return unbiased frequency estimates of the true
// distribution. Estimates may fall slightly outside [0,1]; they are NOT
// clipped so that unbiasedness (and the tests asserting it) hold.
//
//trimlint:allow deadexport staged: only tests call it (TestGRRFrequencyRecovery, TestGRRValidation)
func (g *GRR) EstimateFrequencies(counts []int) ([]float64, error) {
	if len(counts) != g.k {
		return nil, fmt.Errorf("ldp: GRR got %d counts for k=%d", len(counts), g.k)
	}
	var n int
	for _, c := range counts {
		if c < 0 {
			return nil, fmt.Errorf("ldp: negative count %d", c)
		}
		n += c
	}
	if n == 0 {
		return nil, stats.ErrEmpty
	}
	out := make([]float64, g.k)
	for i, c := range counts {
		obs := float64(c) / float64(n)
		out[i] = (obs - g.q) / (g.p - g.q)
	}
	return out, nil
}
