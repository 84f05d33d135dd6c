package stats

import (
	"errors"
	"math"
)

// ErrEmpty is returned by reductions that are undefined on empty input.
var ErrEmpty = errors.New("stats: empty input")

// Sum returns the sum of xs. Sum of an empty slice is 0.
func Sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// Mean returns the arithmetic mean of xs. It returns NaN for empty input so
// that downstream aggregation surfaces the error instead of silently using 0.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return Sum(xs) / float64(len(xs))
}

// Variance returns the population variance of xs (dividing by n, matching
// the paper's SSE-style error accounting). Empty input yields NaN.
func Variance(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 {
	return math.Sqrt(Variance(xs))
}

// Min returns the minimum of xs.
func Min(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m, nil
}

// Max returns the maximum of xs.
func Max(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m, nil
}

// MSE returns the mean squared error between observed ys and predicted yhat.
// The slices must have equal, non-zero length.
func MSE(ys, yhat []float64) (float64, error) {
	if len(ys) == 0 {
		return 0, ErrEmpty
	}
	if len(ys) != len(yhat) {
		return 0, errors.New("stats: MSE length mismatch")
	}
	var s float64
	for i := range ys {
		d := ys[i] - yhat[i]
		s += d * d
	}
	return s / float64(len(ys)), nil
}

// SSE returns the sum of squared errors between observed ys and predicted
// yhat, matching the paper's SSE = Σ (y_i − ŷ_i)².
func SSE(ys, yhat []float64) (float64, error) {
	if len(ys) != len(yhat) {
		return 0, errors.New("stats: SSE length mismatch")
	}
	var s float64
	for i := range ys {
		d := ys[i] - yhat[i]
		s += d * d
	}
	return s, nil
}

// AbsError returns |a−b|.
func AbsError(a, b float64) float64 {
	return math.Abs(a - b)
}

// Clamp limits x to [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// IsFiniteSlice reports whether every element of xs is finite (no NaN/Inf).
func IsFiniteSlice(xs []float64) bool {
	// x − x is 0 for a finite x and NaN for NaN or ±Inf, and a NaN stays in
	// the sum, so one branch-free pass decides: a worker checks every
	// coordinate of its row dataset this way at configure.
	s := 0.0
	for _, x := range xs {
		s += x - x
	}
	return s == 0
}
