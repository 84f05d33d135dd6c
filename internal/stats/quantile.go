package stats

import (
	"math"
	"sort"
)

// Quantile returns the q-th quantile (0 ≤ q ≤ 1) of xs using linear
// interpolation between order statistics (type-7 / MATLAB "prctile"
// convention, which the paper's experiments rely on for percentile
// placement). The input is not modified. Empty input yields NaN; q outside
// [0,1] is clamped.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sorted := append([]float64(nil), xs...)
	SortFloat64s(sorted)
	return QuantileSorted(sorted, q)
}

// QuantileSorted is Quantile for already-sorted input. It performs no
// allocation, which matters in the per-round hot path of the collection game.
func QuantileSorted(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if n == 1 {
		return sorted[0]
	}
	q = Clamp(q, 0, 1)
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) of xs.
func Percentile(xs []float64, p float64) float64 {
	return Quantile(xs, p/100)
}

// PercentileRank returns the fraction of elements in xs that are ≤ v, i.e.
// the empirical CDF of xs evaluated at v. It is the inverse operation of
// Quantile and is used to express injection/trim positions as percentiles.
func PercentileRank(xs []float64, v float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sorted := append([]float64(nil), xs...)
	SortFloat64s(sorted)
	return PercentileRankSorted(sorted, v)
}

// PercentileRankSorted is PercentileRank for already-sorted input.
func PercentileRankSorted(sorted []float64, v float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	// Number of elements ≤ v.
	idx := sort.SearchFloat64s(sorted, math.Nextafter(v, math.Inf(1)))
	return float64(idx) / float64(len(sorted))
}

// Median returns the 0.5 quantile of xs.
func Median(xs []float64) float64 {
	return Quantile(xs, 0.5)
}

// TrimAbove returns the elements of xs that are ≤ threshold, preserving
// order. It is the primitive behind every collector strategy: the paper's
// distance-based sanitization removes any point with d_i > θ_d.
func TrimAbove(xs []float64, threshold float64) []float64 {
	kept := make([]float64, 0, len(xs))
	for _, x := range xs {
		if x <= threshold {
			kept = append(kept, x)
		}
	}
	return kept
}

// TrimAtPercentile removes all elements strictly above the p-th percentile
// (0 ≤ p ≤ 100) of xs and returns the kept elements along with the threshold
// value used.
func TrimAtPercentile(xs []float64, p float64) (kept []float64, threshold float64) {
	threshold = Percentile(xs, p)
	return TrimAbove(xs, threshold), threshold
}
