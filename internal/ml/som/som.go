// Package som implements a Kohonen self-organizing map, the third ML
// consumer of the paper's evaluation (Fig 6(b)/Fig 8). The paper trains a
// 20×20 map on the Creditcard dataset and reads class structure off the
// U-matrix (inter-neuron distances); this implementation reproduces the
// map, the U-matrix and the quantization error used to compare schemes.
package som

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/stats"
)

// Map is a rectangular self-organizing map of Rows×Cols neurons, each with a
// weight vector of dimension Dim.
type Map struct {
	Rows, Cols int
	Dim        int
	Weights    [][]float64 // (Rows*Cols) × Dim, row-major
}

// Config controls training.
type Config struct {
	Rows, Cols int     // map size; the paper uses 20×20
	Epochs     int     // default 10
	LearnRate  float64 // initial learning rate, default 0.5
	Radius     float64 // initial neighbourhood radius, default max(Rows,Cols)/2
}

func (c *Config) setDefaults() {
	if c.Rows <= 0 {
		c.Rows = 20
	}
	if c.Cols <= 0 {
		c.Cols = 20
	}
	if c.Epochs <= 0 {
		c.Epochs = 10
	}
	if c.LearnRate <= 0 {
		c.LearnRate = 0.5
	}
	if c.Radius <= 0 {
		c.Radius = float64(maxInt(c.Rows, c.Cols)) / 2
	}
}

// Train fits a SOM to rows.
func Train(rng *rand.Rand, rows [][]float64, cfg Config) (*Map, error) {
	cfg.setDefaults()
	if len(rows) == 0 {
		return nil, fmt.Errorf("som: no training rows")
	}
	dim := len(rows[0])
	m := &Map{Rows: cfg.Rows, Cols: cfg.Cols, Dim: dim}
	m.Weights = make([][]float64, cfg.Rows*cfg.Cols)
	// Initialize neuron weights by sampling training rows: keeps the map in
	// the data's subspace, which converges much faster than random init.
	for i := range m.Weights {
		src := rows[rng.Intn(len(rows))]
		w := append([]float64(nil), src...)
		for j := range w {
			w[j] += stats.Normal(rng, 0, 1e-3)
		}
		m.Weights[i] = w
	}

	totalSteps := cfg.Epochs * len(rows)
	step := 0
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		perm := rng.Perm(len(rows))
		for _, i := range perm {
			x := rows[i]
			frac := float64(step) / float64(totalSteps)
			lr := cfg.LearnRate * math.Exp(-3*frac)
			radius := cfg.Radius * math.Exp(-3*frac)
			if radius < 0.5 {
				radius = 0.5
			}
			bmu := m.BMU(x)
			br, bc := bmu/m.Cols, bmu%m.Cols
			// Update neurons within ~3 radii of the BMU.
			reach := int(radius*3) + 1
			for r := maxInt(0, br-reach); r <= minInt(m.Rows-1, br+reach); r++ {
				for c := maxInt(0, bc-reach); c <= minInt(m.Cols-1, bc+reach); c++ {
					dr, dc := float64(r-br), float64(c-bc)
					grid2 := dr*dr + dc*dc
					h := math.Exp(-grid2 / (2 * radius * radius))
					if h < 1e-4 {
						continue
					}
					w := m.Weights[r*m.Cols+c]
					for j := range w {
						w[j] += lr * h * (x[j] - w[j])
					}
				}
			}
			step++
		}
	}
	return m, nil
}

// BMU returns the index of the best-matching unit for x.
func (m *Map) BMU(x []float64) int {
	best, bestD := 0, math.Inf(1)
	for i, w := range m.Weights {
		if d := stats.SquaredEuclidean(x, w); d < bestD {
			best, bestD = i, d
		}
	}
	return best
}

// QuantizationError returns the mean distance from each row to its BMU —
// the scalar map-quality measure used to compare schemes in Fig 8.
func (m *Map) QuantizationError(rows [][]float64) float64 {
	if len(rows) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range rows {
		s += stats.Euclidean(x, m.Weights[m.BMU(x)])
	}
	return s / float64(len(rows))
}

// UMatrix returns the unified distance matrix: for each neuron, the mean
// Euclidean distance to its 4-connected grid neighbours. Large values mark
// cluster boundaries — the "color depth" of the paper's SOM figures.
//
//trimlint:allow deadexport staged: only tests call it (TestUMatrixShapeAndBoundary)
func (m *Map) UMatrix() [][]float64 {
	u := make([][]float64, m.Rows)
	for r := range u {
		u[r] = make([]float64, m.Cols)
		for c := range u[r] {
			w := m.Weights[r*m.Cols+c]
			var sum float64
			var n int
			for _, d := range [][2]int{{-1, 0}, {1, 0}, {0, -1}, {0, 1}} {
				nr, nc := r+d[0], c+d[1]
				if nr < 0 || nr >= m.Rows || nc < 0 || nc >= m.Cols {
					continue
				}
				sum += stats.Euclidean(w, m.Weights[nr*m.Cols+nc])
				n++
			}
			u[r][c] = sum / float64(n)
		}
	}
	return u
}

// HitMap returns, for each neuron, how many of rows map to it.
//
//trimlint:allow deadexport staged: only tests call it (TestHitMap)
func (m *Map) HitMap(rows [][]float64) []int {
	hits := make([]int, len(m.Weights))
	for _, x := range rows {
		hits[m.BMU(x)]++
	}
	return hits
}

// ClassIslands summarises how a labeled dataset lands on the map: for each
// class, the number of distinct neurons it occupies and the mean pairwise
// grid distance between its BMUs and the dominant class's BMUs. Fig 8's
// qualitative reading ("isolated points", "green class preserved") becomes
// quantitative through this summary.
type ClassIsland struct {
	Class        int
	Neurons      int     // distinct BMUs occupied by the class
	Hits         int     // instances of the class
	GridDistance float64 // mean grid distance from class BMUs to the dominant class's BMUs
}

// ClassIslands computes the per-class summary. labels must parallel rows.
func (m *Map) ClassIslands(rows [][]float64, labels []int, classes int) ([]ClassIsland, error) {
	if len(rows) != len(labels) {
		return nil, fmt.Errorf("som: %d rows but %d labels", len(rows), len(labels))
	}
	bmusByClass := make([]map[int]int, classes)
	for c := range bmusByClass {
		bmusByClass[c] = map[int]int{}
	}
	counts := make([]int, classes)
	for i, x := range rows {
		y := labels[i]
		if y < 0 || y >= classes {
			return nil, fmt.Errorf("som: label %d outside [0,%d)", y, classes)
		}
		bmusByClass[y][m.BMU(x)]++
		counts[y]++
	}
	dominant := 0
	for c := range counts {
		if counts[c] > counts[dominant] {
			dominant = c
		}
	}
	out := make([]ClassIsland, classes)
	for c := 0; c < classes; c++ {
		isl := ClassIsland{Class: c, Neurons: len(bmusByClass[c]), Hits: counts[c]}
		if c != dominant && len(bmusByClass[c]) > 0 && len(bmusByClass[dominant]) > 0 {
			var sum float64
			var n int
			for b1 := range bmusByClass[c] {
				r1, c1 := b1/m.Cols, b1%m.Cols
				for b2 := range bmusByClass[dominant] {
					r2, c2 := b2/m.Cols, b2%m.Cols
					dr, dc := float64(r1-r2), float64(c1-c2)
					sum += math.Sqrt(dr*dr + dc*dc)
					n++
				}
			}
			isl.GridDistance = sum / float64(n)
		}
		out[c] = isl
	}
	return out, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
