package arrival

import (
	"fmt"
	"math/rand"

	"repro/internal/ldp"
	"repro/internal/stats"
)

// Mech is an LDP mechanism code of the wire format — the mechanisms whose
// construction is a pure function of (kind, ε, arity) and can therefore be
// re-instantiated identically on a worker. Piecewise and Duchi need only
// (kind, ε); the categorical GRR additionally carries its category count k
// (wire.Directive.MechK). Mechanisms with richer state (the EMF baseline's
// binned channel) are not wire-codable; shard-local LDP games reject them
// at validation. The named type makes mechanism dispatches visible to the
// opswitch exhaustiveness analyzer: adding a code without handling it in
// every switch is a lint failure, not a runtime surprise.
type Mech byte

// The wire-codable mechanism codes. MechNone marks a non-LDP game.
const (
	MechNone      Mech = 0
	MechPiecewise Mech = 1
	MechDuchi     Mech = 2
	MechGRR       Mech = 3
)

// MechToWire returns the wire code of a mechanism — (kind, ε, arity), with
// arity 0 for the numeric mechanisms — or an error when the mechanism
// cannot be reconstructed from a code.
func MechToWire(m ldp.Mechanism) (kind Mech, eps float64, k int, err error) {
	switch g := m.(type) {
	case *ldp.Piecewise:
		return MechPiecewise, m.Epsilon(), 0, nil
	case *ldp.Duchi:
		return MechDuchi, m.Epsilon(), 0, nil
	case *ldp.GRRValue:
		return MechGRR, g.Epsilon(), g.K(), nil
	}
	return MechNone, 0, 0, fmt.Errorf("arrival: mechanism %T is not wire-codable", m)
}

// MechFromWire reconstructs a mechanism from its wire code.
func MechFromWire(kind Mech, eps float64, k int) (ldp.Mechanism, error) {
	switch kind {
	case MechPiecewise:
		return ldp.NewPiecewise(eps)
	case MechDuchi:
		return ldp.NewDuchi(eps)
	case MechGRR:
		return ldp.NewGRRValue(eps, k)
	case MechNone:
		return nil, fmt.Errorf("arrival: mechanism code MechNone marks a non-LDP game; nothing to reconstruct")
	default:
		return nil, fmt.Errorf("arrival: unknown mechanism code %d", kind)
	}
}

// LDP draws one shard's slice of a privacy-preserving round from one
// sorted clean input pool: honest inputs sampled uniformly from it and
// perturbed through the mechanism, then input-manipulation poison (forge
// an input at a commanded percentile of the same pool, follow the
// protocol). A categorical (frequency-oracle) round is the same draw over
// a pool of float-embedded categories behind ldp.GRRValue, whose
// InputClamper rounds a forged percentile value to its nearest legal
// category; its reports are category indices embedded in float64, so the
// rest of the pipeline treats it like a numeric round over the ordinal
// scale. The draw order per arrival is part of the reproducibility
// contract:
//
//	honest i:  one Intn (index into the sorted pool), then the
//	           mechanism's Perturb draws
//	poison i:  Inject.Sample, then the mechanism's Perturb draws on the
//	           forged input
type LDP struct {
	Pool []float64 // sorted clean input pool: honest draws index it, forged percentiles resolve on it
	Mech ldp.Mechanism
}

// NewLDP builds the generator over a pool that is already in
// stats.SortFloat64s order (the coordinator sorts it once and every worker
// checks the order in O(n)); the pool is kept as is, not copied. When the
// mechanism is an ldp.InputClamper, every entry must already lie in its
// input domain — for GRRValue, an integral category in [0, k) — so a
// non-categorical pool behind a MechGRR configure is a protocol error,
// never a silently rounded draw.
func NewLDP(pool []float64, mech ldp.Mechanism) (*LDP, error) {
	if err := checkSorted(pool, "LDP input pool"); err != nil {
		return nil, err
	}
	if mech == nil {
		return nil, fmt.Errorf("arrival: LDP generator needs a mechanism")
	}
	if c, ok := mech.(ldp.InputClamper); ok {
		for _, v := range pool {
			if x := c.ClampInput(v); x != v {
				return nil, fmt.Errorf("arrival: pool entry %v is outside the mechanism's input domain (%T clamps it to %v)",
					v, mech, x)
			}
		}
	}
	return &LDP{Pool: pool, Mech: mech}, nil
}

// Draw generates the shard's reports for one round. Poison occupies the
// tail: poisonFrom = s.HonestN. inputSum is the Σ of honest inputs behind
// the reports (the shard's share of the game's TrueMean); pctSum the Σ of
// drawn injection percentiles.
func (g *LDP) Draw(rng *rand.Rand, s Spec) (reports []float64, inputSum, pctSum float64, err error) {
	if g == nil || g.Mech == nil || len(g.Pool) == 0 {
		return nil, 0, 0, fmt.Errorf("arrival: LDP generator not configured")
	}
	if err := s.validate(); err != nil {
		return nil, 0, 0, err
	}
	reports = make([]float64, 0, s.HonestN+s.PoisonN)
	for i := 0; i < s.HonestN; i++ {
		x := g.Pool[rng.Intn(len(g.Pool))]
		inputSum += x
		reports = append(reports, g.Mech.Perturb(rng, x))
	}
	for i := 0; i < s.PoisonN; i++ {
		pct := s.Inject.Sample(rng)
		pctSum += pct
		forged := ldp.ForgeInput(g.Mech, stats.QuantileSorted(g.Pool, pct))
		reports = append(reports, g.Mech.Perturb(rng, forged))
	}
	return reports, inputSum, pctSum, nil
}
