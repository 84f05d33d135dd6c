// Package dataset provides the five evaluation datasets of the paper
// (Control, Vehicle, Letter, Taxi, Creditcard) as deterministic synthetic
// generators, which cmd/datagen writes out as CSV.
//
// The paper's experiments act on *percentiles* of a numeric view of the data
// (poison values are injected at a percentile; trimming removes everything
// above a percentile), so the generators are designed to reproduce each
// dataset's published shape: instance count, feature count, cluster
// structure, value ranges and skew. See DESIGN.md §2 for the substitution
// argument.
package dataset

import (
	"fmt"

	"repro/internal/stats"
)

// Dataset is an in-memory numeric dataset with optional labels.
type Dataset struct {
	Name     string
	X        [][]float64 // instances × features
	Y        []int       // per-instance label; nil when unlabeled
	Clusters int         // number of classes/clusters the paper reports
}

// Len returns the number of instances.
func (d *Dataset) Len() int { return len(d.X) }

// Dim returns the number of features, 0 for an empty dataset.
func (d *Dataset) Dim() int {
	if len(d.X) == 0 {
		return 0
	}
	return len(d.X[0])
}

// Labeled reports whether the dataset carries labels.
func (d *Dataset) Labeled() bool { return d.Y != nil }

// Validate checks structural invariants: rectangular X, matching Y length,
// finite values.
func (d *Dataset) Validate() error {
	dim := d.Dim()
	for i, row := range d.X {
		if len(row) != dim {
			return fmt.Errorf("dataset %s: row %d has %d features, want %d", d.Name, i, len(row), dim)
		}
		if !stats.IsFiniteSlice(row) {
			return fmt.Errorf("dataset %s: row %d contains NaN/Inf", d.Name, i)
		}
	}
	if d.Y != nil && len(d.Y) != len(d.X) {
		return fmt.Errorf("dataset %s: %d labels for %d instances", d.Name, len(d.Y), len(d.X))
	}
	return nil
}

// Centroid returns the global mean vector of the dataset.
func (d *Dataset) Centroid() ([]float64, error) {
	return stats.MeanVector(d.X)
}

// Distances returns, for every instance, its Euclidean distance from the
// global centroid. This scalar view is the quantity the collection game
// trims on: the paper's distance-based sanitization removes any point with
// d_i above a threshold, and both injection and trimming positions are
// expressed as percentiles of this distribution.
func (d *Dataset) Distances() ([]float64, error) {
	c, err := d.Centroid()
	if err != nil {
		return nil, err
	}
	ds := make([]float64, len(d.X))
	for i, row := range d.X {
		ds[i] = stats.Euclidean(row, c)
	}
	return ds, nil
}

// Column extracts feature j as a fresh slice.
func (d *Dataset) Column(j int) ([]float64, error) {
	if j < 0 || j >= d.Dim() {
		return nil, fmt.Errorf("dataset %s: column %d out of %d", d.Name, j, d.Dim())
	}
	col := make([]float64, len(d.X))
	for i, row := range d.X {
		col[i] = row[j]
	}
	return col, nil
}

// Info is one row of the paper's Table II.
type Info struct {
	Name      string
	Instances int
	Features  int
	Clusters  int
}

// Summary returns the dataset's Table II row.
func (d *Dataset) Summary() Info {
	return Info{Name: d.Name, Instances: d.Len(), Features: d.Dim(), Clusters: d.Clusters}
}
