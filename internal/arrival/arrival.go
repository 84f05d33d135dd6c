// Package arrival is the shard-local data plane of the collection games:
// deterministic arrival generators that draw one shard's slice of a round
// — honest, injected and poisoned — from an RNG stream derived off a
// master seed (stats.DeriveSeed). The same generator code runs inside the
// single-process sharded engines (internal/collect) and inside cluster
// workers (internal/cluster), which is what lets a loopback or TCP cluster
// reproduce a single-process reference run record for record while the
// coordinator ships only O(1) round directives (wire.GenSpec) instead of
// O(batch) value slices. Summarize, the stream-building step, and Keep,
// the classify kernel, run in both places too, over the honest-then-poison
// layout the draws return. See DESIGN.md §7 for the seed-derivation and
// draw-order contracts.
package arrival

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"repro/internal/attack"
	"repro/internal/stats"
	"repro/internal/wire"
)

// Spec is the decoded per-round generation recipe: how many arrivals this
// shard draws and from which injection distribution. It is the in-memory
// form of the wire.GenSpec scalars.
type Spec struct {
	HonestN int
	PoisonN int
	Inject  attack.InjectionSpec
	Jitter  float64 // tie-breaking jitter width on the percentile scale
}

func (s Spec) validate() error {
	if s.HonestN < 0 || s.PoisonN < 0 {
		return fmt.Errorf("arrival: negative counts %d/%d", s.HonestN, s.PoisonN)
	}
	if s.PoisonN > 0 {
		return s.Inject.Validate()
	}
	return nil
}

// SpecToWire packs one slot's cells — each cell's spec and its derived
// seed, in cell order — into the wire form. The cells of a round share one
// injection distribution and jitter width; the first cell's are shipped.
func SpecToWire(seeds []int64, cells []Spec) *wire.GenSpec {
	g := &wire.GenSpec{
		Cells:      make([]wire.Cell, len(cells)),
		InjectKind: byte(cells[0].Inject.Kind),
		InjectP:    cells[0].Inject.P,
		InjectLo:   cells[0].Inject.Lo,
		InjectHi:   cells[0].Inject.Hi,
		Jitter:     cells[0].Jitter,
	}
	for c, s := range cells {
		g.Cells[c] = wire.Cell{Seed: seeds[c], HonestN: s.HonestN, PoisonN: s.PoisonN}
	}
	return g
}

// SpecFromWire unpacks and validates a decoded wire.GenSpec into one spec
// per cell, in cell order (the seeds stay on g.Cells) — the worker-side
// guard: a malformed generator directive is a protocol error, never a
// silently skewed draw.
func SpecFromWire(g *wire.GenSpec) ([]Spec, error) {
	if g == nil || len(g.Cells) == 0 {
		return nil, fmt.Errorf("arrival: directive carries no generator cells")
	}
	if !(g.Jitter >= 0) || math.IsInf(g.Jitter, 0) {
		return nil, fmt.Errorf("arrival: jitter %v", g.Jitter)
	}
	inject := attack.InjectionSpec{
		Kind: attack.SpecKind(g.InjectKind),
		P:    g.InjectP,
		Lo:   g.InjectLo,
		Hi:   g.InjectHi,
	}
	specs := make([]Spec, len(g.Cells))
	for c, cell := range g.Cells {
		specs[c] = Spec{HonestN: cell.HonestN, PoisonN: cell.PoisonN, Inject: inject, Jitter: g.Jitter}
		if err := specs[c].validate(); err != nil {
			return nil, fmt.Errorf("cell %d: %w", c, err)
		}
	}
	return specs, nil
}

// Scalar draws one shard's slice of a scalar round from the sorted clean
// reference Ref alone: honest values sampled uniformly with replacement
// from it (a uniform draw does not depend on the order it indexes), then
// poison values placed at injection percentiles of it (with tie-breaking
// jitter). The draw order per arrival is part of the reproducibility
// contract:
//
//	honest i:  one Intn (index into Ref)
//	poison i:  Inject.Sample, then one Float64 (jitter)
type Scalar struct {
	Ref []float64 // sorted clean reference: the honest pool and the injection percentile scale
}

// NewScalar builds the generator over a shipped reference, which must be
// non-empty and in stats.SortFloat64s order — the worker-side guard, so a
// reference the coordinator did not sort is a protocol error rather than
// a silently skewed percentile scale.
func NewScalar(ref []float64) (*Scalar, error) {
	if err := checkSorted(ref, "scalar reference"); err != nil {
		return nil, err
	}
	return &Scalar{Ref: ref}, nil
}

func (g *Scalar) validate() error {
	if g == nil || len(g.Ref) == 0 {
		return fmt.Errorf("arrival: scalar generator needs a reference")
	}
	return nil
}

// checkSorted accepts a non-empty pool in stats.SortFloat64s order — which
// is sort.Float64s's, NaNs first — that holds no NaN (a sorted pool holds
// one only at its head). It is O(n) and allocates nothing.
func checkSorted(xs []float64, what string) error {
	switch {
	case len(xs) == 0:
		return fmt.Errorf("arrival: empty %s", what)
	case !slices.IsSorted(xs):
		return fmt.Errorf("arrival: %s is not sorted", what)
	case math.IsNaN(xs[0]):
		return fmt.Errorf("arrival: %s holds NaN", what)
	}
	return nil
}

// Draw generates the shard's arrivals for one round. Poison occupies the
// tail: poisonFrom = s.HonestN. pctSum is the Σ of drawn injection
// percentiles (the shard's share of the round's MeanInjectionPct).
func (g *Scalar) Draw(rng *rand.Rand, s Spec) (values []float64, pctSum float64, err error) {
	if err := g.validate(); err != nil {
		return nil, 0, err
	}
	if err := s.validate(); err != nil {
		return nil, 0, err
	}
	values = make([]float64, 0, s.HonestN+s.PoisonN)
	for i := 0; i < s.HonestN; i++ {
		values = append(values, g.Ref[rng.Intn(len(g.Ref))])
	}
	for i := 0; i < s.PoisonN; i++ {
		pct := s.Inject.Sample(rng)
		pctSum += pct
		values = append(values, stats.QuantileSorted(g.Ref, pct)+(rng.Float64()-0.5)*s.Jitter)
	}
	return values, pctSum, nil
}
