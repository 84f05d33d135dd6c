package stats

import (
	"fmt"
	"math"
)

// SquaredEuclidean returns ‖a−b‖² for equal-length vectors. It panics on
// length mismatch because mismatched dimensionality is a programming error,
// not a data condition: every caller draws both vectors from one dataset.
func SquaredEuclidean(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("stats: dimension mismatch %d vs %d", len(a), len(b)))
	}
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// Euclidean returns ‖a−b‖. When the squared sum overflows (vectors about
// 1e154 or further apart), it measures the difference in units of its
// largest |a_i − b_i| instead, so only a distance past math.MaxFloat64
// reads +Inf.
func Euclidean(a, b []float64) float64 {
	s := SquaredEuclidean(a, b)
	if !math.IsInf(s, 1) {
		return math.Sqrt(s)
	}
	unit := 0.0
	for i := range a {
		unit = math.Max(unit, math.Abs(a[i]-b[i]))
	}
	if math.IsInf(unit, 1) {
		return unit
	}
	s = 0
	for i := range a {
		d := (a[i] - b[i]) / unit
		s += d * d
	}
	return unit * math.Sqrt(s)
}

// Manhattan returns the L1 distance Σ|a_i − b_i|.
//
//trimlint:allow deadexport staged: only tests call it (TestEuclideanDistances, TestDistancePanicsOnMismatch/Manhattan)
func Manhattan(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("stats: dimension mismatch %d vs %d", len(a), len(b)))
	}
	var s float64
	for i := range a {
		s += math.Abs(a[i] - b[i])
	}
	return s
}

// Dot returns the inner product a·b.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("stats: dimension mismatch %d vs %d", len(a), len(b)))
	}
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Norm returns the Euclidean norm ‖a‖.
func Norm(a []float64) float64 {
	var s float64
	for _, x := range a {
		s += x * x
	}
	return math.Sqrt(s)
}

// Scale multiplies every element of a by c in place and returns a.
func Scale(a []float64, c float64) []float64 {
	for i := range a {
		a[i] *= c
	}
	return a
}

// AddInPlace adds b into a element-wise and returns a.
func AddInPlace(a, b []float64) []float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("stats: dimension mismatch %d vs %d", len(a), len(b)))
	}
	for i := range a {
		a[i] += b[i]
	}
	return a
}

// MeanVector returns the element-wise mean of rows, each of equal length.
func MeanVector(rows [][]float64) ([]float64, error) {
	if len(rows) == 0 {
		return nil, ErrEmpty
	}
	dim := len(rows[0])
	m := make([]float64, dim)
	for _, r := range rows {
		if len(r) != dim {
			return nil, fmt.Errorf("stats: ragged rows: %d vs %d", len(r), dim)
		}
		for i, v := range r {
			m[i] += v
		}
	}
	for i := range m {
		m[i] /= float64(len(rows))
	}
	return m, nil
}
