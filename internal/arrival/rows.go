package arrival

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/stats"
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
	X [][]float64
	Y []int // nil when unlabeled

	Clusters    int // class count for random poison labels
	PoisonLabel int // fixed poison label; −1: random existing class
}

// NewRows builds the generator over a shipped dataset — the worker-side
// guard, the row counterpart of NewScalar and NewLDP. It refuses a
// dataset it cannot draw from: an empty one, a label count other than the
// row count, random poison labels (PoisonLabel < 0) without a class count,
// and a NaN or ±Inf coordinate, whose distance from any center the
// summary would silently drop. The rows are kept as given, not copied.
func NewRows(x [][]float64, y []int, clusters, poisonLabel int) (*Rows, error) {
	g := &Rows{X: x, Y: y, Clusters: clusters, PoisonLabel: poisonLabel}
	if err := g.validate(); err != nil {
		return nil, err
	}
	for i, row := range x {
		if !stats.IsFiniteSlice(row) {
			return nil, fmt.Errorf("arrival: dataset row %d holds a NaN or infinite coordinate", i)
		}
	}
	return g, nil
}

// Labeled reports whether generated arrivals carry labels.
func (g *Rows) Labeled() bool { return g != nil && g.Y != nil }

func (g *Rows) validate() error {
	if g == nil || len(g.X) == 0 {
		return fmt.Errorf("arrival: row generator needs a dataset")
	}
	if g.Y != nil && len(g.Y) != len(g.X) {
		return fmt.Errorf("arrival: %d labels for %d rows", len(g.Y), len(g.X))
	}
	if g.Y != nil && g.PoisonLabel < 0 && g.Clusters <= 0 {
		return fmt.Errorf("arrival: random poison labels need a class count")
	}
	return nil
}

// Draw generates the shard's arrivals for one round. scaleQ resolves a
// percentile on the clean distance scale (the merged per-shard scale
// summary); center is the collector's current robust center. Poison
// occupies the tail: poisonFrom = s.HonestN. labels is nil for unlabeled
// datasets, else aligned with rows. Honest rows are X's own slices, not
// copies, so the caller must not modify them.
func (g *Rows) Draw(rng *rand.Rand, s Spec, center []float64, scaleQ func(float64) float64) (rows [][]float64, labels []int, pctSum float64, err error) {
	if err := g.validate(); err != nil {
		return nil, nil, 0, err
	}
	if err := s.validate(); err != nil {
		return nil, nil, 0, err
	}
	if len(center) == 0 {
		return nil, nil, 0, fmt.Errorf("arrival: row generation without a center")
	}
	rows = make([][]float64, 0, s.HonestN+s.PoisonN)
	if g.Labeled() {
		labels = make([]int, 0, s.HonestN+s.PoisonN)
	}
	for i := 0; i < s.HonestN; i++ {
		j := rng.Intn(len(g.X))
		rows = append(rows, g.X[j])
		if labels != nil {
			labels = append(labels, g.Y[j])
		}
	}
	for i := 0; i < s.PoisonN; i++ {
		pct := s.Inject.Sample(rng)
		pctSum += pct
		dist := scaleQ(pct) + (rng.Float64()-0.5)*s.Jitter
		if dist < 0 {
			dist = 0
		}
		row, err := PoisonRow(center, g.X[rng.Intn(len(g.X))], dist)
		if err != nil {
			return nil, nil, 0, err
		}
		rows = append(rows, row)
		if labels != nil {
			label := g.PoisonLabel
			if label < 0 {
				label = rng.Intn(g.Clusters)
			}
			labels = append(labels, label)
		}
	}
	return rows, labels, pctSum, nil
}

// PoisonRow rescales an honest base row about the center so that its
// distance from the center equals dist exactly — the evasive counterfeit
// record of §III-A: the game-relevant quantity (distance) is coordinated,
// everything else looks like data. Degenerate bases (at the center) fall
// back to a unit offset in the first coordinate. When the squared offset
// or an offset times dist overflows (a base row about 1e154 or further
// from the center), the offset is measured in units of its largest
// coordinate instead, so the row still lands at dist. It returns an error
// when the offset or the placed row does not fit in a float64, as for base
// 1e308 around center −1e308.
func PoisonRow(center, base []float64, dist float64) ([]float64, error) {
	row := make([]float64, len(center))
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
		return row, nil
	}
	if !math.IsInf(norm, 1) {
		for i := range row {
			row[i] = center[i] + row[i]*dist/norm
		}
		if stats.IsFiniteSlice(row) {
			return row, nil
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
		return nil, fmt.Errorf("arrival: no finite poison row at distance %v from the center along the base row's offset", dist)
	}
	return row, nil
}
