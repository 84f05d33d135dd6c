package stats

import (
	"math"
	"math/rand"
)

// NewRand returns a seeded *rand.Rand. Every randomized component in the
// repository threads one of these explicitly so that experiments are
// reproducible and repetitions are independent (seed = base + repetition).
func NewRand(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// Normal draws one sample from N(mu, sigma²).
func Normal(rng *rand.Rand, mu, sigma float64) float64 {
	return mu + sigma*rng.NormFloat64()
}

// NormalSlice draws n samples from N(mu, sigma²).
func NormalSlice(rng *rand.Rand, n int, mu, sigma float64) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = Normal(rng, mu, sigma)
	}
	return xs
}

// UniformSlice draws n samples from U[lo, hi).
//
//trimlint:allow deadexport staged: only tests call it (TestUniformSliceRange)
func UniformSlice(rng *rand.Rand, n int, lo, hi float64) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = lo + (hi-lo)*rng.Float64()
	}
	return xs
}

// Laplace draws one sample from the Laplace distribution with location mu
// and scale b, the noise primitive of ε-differential privacy.
//
//trimlint:allow deadexport staged: only tests call it (TestLaplaceMoments)
func Laplace(rng *rand.Rand, mu, b float64) float64 {
	u := rng.Float64() - 0.5
	return mu - b*sign(u)*math.Log(1-2*math.Abs(u))
}

func sign(x float64) float64 {
	if x < 0 {
		return -1
	}
	return 1
}

// MixtureComponent is one Gaussian component of a mixture distribution.
type MixtureComponent struct {
	Weight float64
	Mu     float64
	Sigma  float64
}

// Mixture draws one sample from a weighted Gaussian mixture. Weights need
// not be normalized; they are treated proportionally.
func Mixture(rng *rand.Rand, comps []MixtureComponent) float64 {
	var total float64
	for _, c := range comps {
		total += c.Weight
	}
	u := rng.Float64() * total
	var cum float64
	for _, c := range comps {
		cum += c.Weight
		if u <= cum {
			return Normal(rng, c.Mu, c.Sigma)
		}
	}
	last := comps[len(comps)-1]
	return Normal(rng, last.Mu, last.Sigma)
}

// Shuffle permutes xs in place using rng.
//
//trimlint:allow deadexport staged: only tests call it (TestShufflePreservesMultiset)
func Shuffle(rng *rand.Rand, xs []float64) {
	rng.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
}

// SampleWithout returns k indices sampled without replacement from [0, n).
// It panics if k > n.
//
//trimlint:allow deadexport staged: only tests call it (TestSampleWithout)
func SampleWithout(rng *rand.Rand, n, k int) []int {
	if k > n {
		panic("stats: sample larger than population")
	}
	perm := rng.Perm(n)
	return perm[:k]
}

// Bernoulli returns true with probability p.
//
//trimlint:allow deadexport staged: only tests call it (TestBernoulli)
func Bernoulli(rng *rand.Rand, p float64) bool {
	return rng.Float64() < p
}
