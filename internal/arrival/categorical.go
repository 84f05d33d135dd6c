package arrival

import (
	"fmt"
	"math/rand"

	"repro/internal/ldp"
	"repro/internal/stats"
)

// Categorical draws one shard's slice of a categorical (frequency-oracle)
// round: honest categories sampled from the clean pool and perturbed
// through the k-ary GRR channel, then input-manipulation poison — forge the
// category at a commanded percentile of the clean category distribution and
// follow the protocol (GRRValue rounds the forged percentile value to its
// nearest legal category, exactly as ldp.NewInputManipulator would). The
// draw order per arrival is part of the reproducibility contract and
// matches LDP's:
//
//	honest i:  one Intn (pool index), then the channel's Perturb draws
//	poison i:  Inject.Sample, then the channel's Perturb draws on the
//	           forged category
//
// Reports are category indices embedded in float64, so the rest of the
// pipeline — summaries, trim thresholds, classification — treats a
// categorical round exactly like a numeric one over the ordinal scale.
type Categorical struct {
	Pool   []int // honest category pool; index order matters (Intn addressing)
	Mech   *ldp.GRRValue
	sorted []float64 // Pool as sorted floats (forged-percentile resolution)
}

// NewCategorical builds the generator, validating every pool entry against
// the channel's category domain and sorting a private percentile scale with
// stats.SortFloat64s (radix over the integral categories, so a
// duplicate-heavy pool skips its tie runs; the order is sort.Float64s's).
func NewCategorical(pool []int, mech *ldp.GRRValue) (*Categorical, error) {
	if len(pool) == 0 {
		return nil, fmt.Errorf("arrival: categorical generator needs a category pool")
	}
	if mech == nil {
		return nil, fmt.Errorf("arrival: categorical generator needs a GRR channel")
	}
	sorted := make([]float64, len(pool))
	for i, c := range pool {
		if c < 0 || c >= mech.K() {
			return nil, fmt.Errorf("arrival: pool category %d outside [0, %d)", c, mech.K())
		}
		sorted[i] = float64(c)
	}
	stats.SortFloat64s(sorted)
	return &Categorical{Pool: pool, Mech: mech, sorted: sorted}, nil
}

// NewCategoricalFromWire rebuilds the generator from its configure payload:
// the pool shipped as floats (validated to be integral categories) plus the
// GRR channel's (ε, k). This is the worker-side guard — a non-categorical
// pool behind a MechGRR configure is a protocol error, never a silently
// rounded draw.
func NewCategoricalFromWire(pool []float64, eps float64, k int) (*Categorical, error) {
	mech, err := ldp.NewGRRValue(eps, k)
	if err != nil {
		return nil, err
	}
	cats := make([]int, len(pool))
	for i, v := range pool {
		c := int(v)
		if float64(c) != v {
			return nil, fmt.Errorf("arrival: pool entry %v is not a category index", v)
		}
		cats[i] = c
	}
	return NewCategorical(cats, mech)
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
		inputSum += float64(c)
		reports = append(reports, g.Mech.Perturb(rng, float64(c)))
	}
	for i := 0; i < s.PoisonN; i++ {
		pct := s.Inject.Sample(rng)
		pctSum += pct
		forged := stats.QuantileSorted(g.sorted, pct)
		reports = append(reports, g.Mech.Perturb(rng, forged))
	}
	return reports, inputSum, pctSum, nil
}
