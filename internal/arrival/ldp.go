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

// LDP draws one shard's slice of a privacy-preserving round: honest inputs
// sampled from the clean pool and perturbed through the mechanism, then
// input-manipulation poison (forge an input at a commanded percentile of
// the clean input distribution, follow the protocol). The draw order per
// arrival is part of the reproducibility contract:
//
//	honest i:  one Intn (pool index), then the mechanism's Perturb draws
//	poison i:  Inject.Sample, then the mechanism's Perturb draws on the
//	           forged input
type LDP struct {
	Pool   []float64 // clean input pool; index order matters (Intn addressing)
	Mech   ldp.Mechanism
	sorted []float64 // Pool sorted, for forged-input percentile resolution
}

// NewLDP builds the generator, sorting a private copy of the pool once with
// stats.SortFloat64s. Every worker of a shard-local LDP game builds one when
// it is configured, so this radix sort is the bulk of the game's set-up; it
// orders the pool exactly as sort.Float64s would.
func NewLDP(pool []float64, mech ldp.Mechanism) (*LDP, error) {
	if len(pool) == 0 {
		return nil, fmt.Errorf("arrival: LDP generator needs an input pool")
	}
	if mech == nil {
		return nil, fmt.Errorf("arrival: LDP generator needs a mechanism")
	}
	sorted := append([]float64(nil), pool...)
	stats.SortFloat64s(sorted)
	return &LDP{Pool: pool, Mech: mech, sorted: sorted}, nil
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
		forged := stats.QuantileSorted(g.sorted, pct)
		m, err := ldp.NewInputManipulator(g.Mech, forged)
		if err != nil {
			return nil, 0, 0, err
		}
		reports = append(reports, m.Report(rng))
	}
	return reports, inputSum, pctSum, nil
}
