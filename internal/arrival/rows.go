package arrival

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/stats"
	"repro/internal/wire"
)

// Rows draws one shard's slice of a row-game round: honest rows sampled
// uniformly with replacement from the dataset, then poison rows rescaled to
// commanded distance percentiles of the clean scale around the current
// robust center. The draw order per arrival is part of the reproducibility
// contract:
//
//	honest i:  one Intn (dataset index)
//	poison i:  Inject.Sample, one Float64 (jitter), one Intn (base row),
//	           and — when the dataset is labeled and PoisonLabel < 0 —
//	           one Intn (random class)
type Rows struct {
	X wire.Matrix // the dataset, held flat (a view of the configure message where the wire can view it)
	Y []uint32    // one label per row; nil when unlabeled

	Clusters    int // class count for random poison labels
	PoisonLabel int // fixed poison label; −1: random existing class
}

// RowDraw is one cell's drawn rows in flat form, honest first: Honest[i]
// is the dataset index of honest row i, and poison row k is row k of
// Poison, labeled PoisonLabels[k] when the dataset is labeled (nil
// otherwise). An honest row's label is the dataset's.
type RowDraw struct {
	Honest       []int32
	Poison       wire.Matrix
	PoisonLabels []uint32
}

// Len reports the number of rows drawn, honest and poison.
func (d *RowDraw) Len() int { return len(d.Honest) + d.Poison.Len() }

// NewRows builds the generator over a shipped dataset — the worker-side
// guard, the row counterpart of NewScalar and NewLDP. It refuses a
// dataset it cannot draw from: an empty one, one with more rows than an
// int32 index can name, a label count other than the row count, random
// poison labels (PoisonLabel < 0) without a class count, and a NaN or ±Inf
// coordinate, whose distance from any center the summary would silently
// drop. The dataset is kept as given, not copied.
func NewRows(x wire.Matrix, y []uint32, clusters, poisonLabel int) (*Rows, error) {
	g := &Rows{X: x, Y: y, Clusters: clusters, PoisonLabel: poisonLabel}
	if err := g.validate(); err != nil {
		return nil, err
	}
	if x.Len() > math.MaxInt32 {
		return nil, fmt.Errorf("arrival: %d dataset rows, more than an int32 index names", x.Len())
	}
	for i := range x.Len() {
		if !stats.IsFiniteSlice(x.Row(i)) {
			return nil, fmt.Errorf("arrival: dataset row %d holds a NaN or infinite coordinate", i)
		}
	}
	return g, nil
}

// Labeled reports whether generated arrivals carry labels.
func (g *Rows) Labeled() bool { return g != nil && g.Y != nil }

// Row returns row i of the cell d drew from this generator: a row of the
// dataset for an honest row, of d.Poison for a poison one.
func (g *Rows) Row(d *RowDraw, i int) []float64 {
	if i < len(d.Honest) {
		return g.X.Row(int(d.Honest[i]))
	}
	return d.Poison.Row(i - len(d.Honest))
}

func (g *Rows) validate() error {
	if g == nil || g.X.Len() == 0 {
		return fmt.Errorf("arrival: row generator needs a dataset")
	}
	if len(g.X.Data) != g.X.Len()*g.X.Dim {
		return fmt.Errorf("arrival: %d coordinates do not fill rows of %d", len(g.X.Data), g.X.Dim)
	}
	if g.Y != nil && len(g.Y) != g.X.Len() {
		return fmt.Errorf("arrival: %d labels for %d rows", len(g.Y), g.X.Len())
	}
	if g.Y != nil && g.PoisonLabel < 0 && g.Clusters <= 0 {
		return fmt.Errorf("arrival: random poison labels need a class count")
	}
	return nil
}

// Draw generates the shard's arrivals for one round. scaleQ resolves a
// percentile on the clean distance scale (the merged per-shard scale
// summary); center is the collector's current robust center, as wide as a
// dataset row. Honest rows are drawn as dataset indices, so the caller
// reads them from X and must not modify them; poison rows are placed in a
// fresh block.
func (g *Rows) Draw(rng *rand.Rand, s Spec, center []float64, scaleQ func(float64) float64) (d RowDraw, pctSum float64, err error) {
	if err := g.validate(); err != nil {
		return d, 0, err
	}
	if err := s.validate(); err != nil {
		return d, 0, err
	}
	if len(center) != g.X.Dim {
		return d, 0, fmt.Errorf("arrival: row generation around a %d-dim center, dataset dim %d", len(center), g.X.Dim)
	}
	n := g.X.Len()
	d.Honest = make([]int32, s.HonestN)
	for i := range d.Honest {
		d.Honest[i] = int32(rng.Intn(n))
	}
	d.Poison = wire.Matrix{Dim: g.X.Dim, Data: make([]float64, s.PoisonN*g.X.Dim)}
	if g.Labeled() {
		d.PoisonLabels = make([]uint32, s.PoisonN)
	}
	for k := range s.PoisonN {
		pct := s.Inject.Sample(rng)
		pctSum += pct
		dist := scaleQ(pct) + (rng.Float64()-0.5)*s.Jitter
		if dist < 0 {
			dist = 0
		}
		if err := PoisonRow(d.Poison.Row(k), center, g.X.Row(rng.Intn(n)), dist); err != nil {
			return RowDraw{}, 0, err
		}
		if g.Labeled() {
			label := g.PoisonLabel
			if label < 0 {
				label = rng.Intn(g.Clusters)
			}
			d.PoisonLabels[k] = uint32(label)
		}
	}
	return d, pctSum, nil
}

// PoisonRow writes into row (as wide as the center) the honest base row
// rescaled about the center so that its distance from the center equals
// dist exactly — the evasive counterfeit record of §III-A: the
// game-relevant quantity (distance) is coordinated, everything else looks
// like data. Degenerate bases (at the center) fall
// back to a unit offset in the first coordinate. When the squared offset
// or an offset times dist overflows (a base row about 1e154 or further
// from the center), the offset is measured in units of its largest
// coordinate instead, so the row still lands at dist. It returns an error
// when the offset or the placed row does not fit in a float64, as for base
// 1e308 around center −1e308.
func PoisonRow(row, center, base []float64, dist float64) error {
	norm := 0.0
	for i := range row {
		row[i] = base[i] - center[i]
		norm += row[i] * row[i]
	}
	norm = math.Sqrt(norm)
	if norm == 0 {
		row[0] = dist
		for i := range center {
			row[i] += center[i]
		}
		return nil
	}
	if !math.IsInf(norm, 1) {
		for i := range row {
			row[i] = center[i] + row[i]*dist/norm
		}
		if stats.IsFiniteSlice(row) {
			return nil
		}
	}
	unit := 0.0
	for i := range row {
		row[i] = base[i] - center[i]
		unit = math.Max(unit, math.Abs(row[i]))
	}
	norm = 0
	for i := range row {
		row[i] /= unit
		norm += row[i] * row[i]
	}
	norm = math.Sqrt(norm)
	for i := range row {
		row[i] = center[i] + row[i]/norm*dist
	}
	if !stats.IsFiniteSlice(row) {
		return fmt.Errorf("arrival: no finite poison row at distance %v from the center along the base row's offset", dist)
	}
	return nil
}
