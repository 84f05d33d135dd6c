package stats

import (
	"fmt"
	"math"
)

// Histogram is an equal-width histogram over a fixed domain [Lo, Hi]. It is
// the backbone of the LDP frequency-oracle pipeline (internal/ldp) and of
// quality evaluation in the collection game: poison-mass estimates are
// computed from per-round histograms.
type Histogram struct {
	Lo, Hi float64
	Counts []float64 // may hold fractional (estimated) counts
	total  float64
}

// NewHistogram creates a histogram with bins equal-width bins over [lo, hi].
func NewHistogram(lo, hi float64, bins int) (*Histogram, error) {
	if bins <= 0 {
		return nil, fmt.Errorf("stats: histogram needs ≥1 bin, got %d", bins)
	}
	if !(lo < hi) {
		return nil, fmt.Errorf("stats: histogram domain [%v,%v] is empty", lo, hi)
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]float64, bins)}, nil
}

// BinOf returns the bin index for x, clamping out-of-domain values to the
// boundary bins (poison values may exceed the honest domain on purpose).
func (h *Histogram) BinOf(x float64) int {
	if math.IsNaN(x) {
		return 0
	}
	w := (h.Hi - h.Lo) / float64(len(h.Counts))
	i := int((x - h.Lo) / w)
	if i < 0 {
		i = 0
	}
	if i >= len(h.Counts) {
		i = len(h.Counts) - 1
	}
	return i
}

// Center returns the center value of bin i.
func (h *Histogram) Center(i int) float64 {
	w := (h.Hi - h.Lo) / float64(len(h.Counts))
	return h.Lo + (float64(i)+0.5)*w
}

// Add increments the bin containing x by weight 1.
func (h *Histogram) Add(x float64) { h.AddWeighted(x, 1) }

// AddWeighted increments the bin containing x by w.
func (h *Histogram) AddWeighted(x, w float64) {
	h.Counts[h.BinOf(x)] += w
	h.total += w
}

// Frequencies returns the normalized bin frequencies (summing to 1). An
// empty histogram yields all zeros.
func (h *Histogram) Frequencies() []float64 {
	f := make([]float64, len(h.Counts))
	if h.total == 0 {
		return f
	}
	for i, c := range h.Counts {
		f[i] = c / h.total
	}
	return f
}

// Mean returns the histogram-approximated mean using bin centers.
//
//trimlint:allow deadexport staged: only tests call it (TestHistogramFrequenciesAndMean, TestHistogramInvariants)
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return math.NaN()
	}
	var s float64
	for i, c := range h.Counts {
		s += h.Center(i) * c
	}
	return s / h.total
}

// FromSamples builds a histogram over [lo,hi] with bins bins from xs.
func FromSamples(xs []float64, lo, hi float64, bins int) (*Histogram, error) {
	h, err := NewHistogram(lo, hi, bins)
	if err != nil {
		return nil, err
	}
	for _, x := range xs {
		h.Add(x)
	}
	return h, nil
}
