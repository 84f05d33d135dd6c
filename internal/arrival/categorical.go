package arrival

import (
	"fmt"
	"math/rand"

	"repro/internal/ldp"
	"repro/internal/stats"
)

// Categorical draws one shard's slice of a categorical (frequency-oracle)
// round from one sorted pool of float-embedded categories: honest
// categories sampled uniformly from it and perturbed through the k-ary GRR
// channel, then input-manipulation poison — forge the category at a
// commanded percentile of the same pool and follow the protocol (GRRValue
// rounds the forged percentile value to its nearest legal category,
// exactly as ldp.NewInputManipulator would). The draw order per arrival is
// part of the reproducibility contract and matches LDP's:
//
//	honest i:  one Intn (index into the sorted pool), then the channel's
//	           Perturb draws
//	poison i:  Inject.Sample, then the channel's Perturb draws on the
//	           forged category
//
// Reports are category indices embedded in float64, so the rest of the
// pipeline — summaries, trim thresholds, classification — treats a
// categorical round exactly like a numeric one over the ordinal scale.
type Categorical struct {
	Pool []float64 // sorted honest categories, each an integral value in [0, k)
	Mech *ldp.GRRValue
}

// NewCategorical builds the generator over a pool of float-embedded
// categories already in stats.SortFloat64s order, validating the order and
// every entry against the channel's category domain; the pool is kept as
// is, not copied.
func NewCategorical(pool []float64, mech *ldp.GRRValue) (*Categorical, error) {
	if err := checkSorted(pool, "category pool"); err != nil {
		return nil, err
	}
	if mech == nil {
		return nil, fmt.Errorf("arrival: categorical generator needs a GRR channel")
	}
	for _, v := range pool {
		if c := int(v); float64(c) != v || c < 0 || c >= mech.K() {
			return nil, fmt.Errorf("arrival: pool entry %v is not a category in [0, %d)", v, mech.K())
		}
	}
	return &Categorical{Pool: pool, Mech: mech}, nil
}

// NewCategoricalFromWire rebuilds the generator from its configure payload:
// the sorted pool plus the GRR channel's (ε, k). This is the worker-side
// guard — an unsorted or non-categorical pool behind a MechGRR configure
// is a protocol error, never a silently rounded draw.
func NewCategoricalFromWire(pool []float64, eps float64, k int) (*Categorical, error) {
	mech, err := ldp.NewGRRValue(eps, k)
	if err != nil {
		return nil, err
	}
	return NewCategorical(pool, mech)
}

// Draw generates the shard's reports for one round. Poison occupies the
// tail: poisonFrom = s.HonestN. inputSum is the Σ of honest true categories
// behind the reports (the shard's share of the game's TrueMean); pctSum the
// Σ of drawn injection percentiles.
func (g *Categorical) Draw(rng *rand.Rand, s Spec) (reports []float64, inputSum, pctSum float64, err error) {
	if g == nil || g.Mech == nil || len(g.Pool) == 0 {
		return nil, 0, 0, fmt.Errorf("arrival: categorical generator not configured")
	}
	if err := s.validate(); err != nil {
		return nil, 0, 0, err
	}
	reports = make([]float64, 0, s.HonestN+s.PoisonN)
	for i := 0; i < s.HonestN; i++ {
		c := g.Pool[rng.Intn(len(g.Pool))]
		inputSum += c
		reports = append(reports, g.Mech.Perturb(rng, c))
	}
	for i := 0; i < s.PoisonN; i++ {
		pct := s.Inject.Sample(rng)
		pctSum += pct
		forged := stats.QuantileSorted(g.Pool, pct)
		reports = append(reports, g.Mech.Perturb(rng, forged))
	}
	return reports, inputSum, pctSum, nil
}
