package collect

import (
	"math"

	"repro/internal/stats"
	"repro/internal/stats/summary"
)

// QualityFn is the publicly recognized data quality standard of §III-B:
// given the values the collector received in a round and the sorted clean
// reference, it returns a quality score in [0, 1] (1 = indistinguishable
// from clean data). Both parties agree on this function — its existence is
// what makes the game well-defined.
//
// A QualityFn is the slice form: exact one-pass counting, the reference
// implementation and the one the ExactQuantiles paths keep bit-stable. The
// default standard, ExcessMassQuality, also has a summary-native form
// (ExcessMassQualitySummary) that the engines call on the round summary
// they already maintain, within ε of the exact score; the cluster games,
// whose shard workers never gather raw values, score with it alone.
type QualityFn func(roundValues, sortedReference []float64) float64

// ExcessMassQuality is the default quality standard: it measures how much
// probability mass the round carries above the reference's 90th percentile
// beyond the expected 10%, normalized so that a round that is pure poison
// above Q90 scores 0 and a clean round scores 1.
//
// Under the paper's attacks (injection at percentiles ≥ 0.9) the excess
// mass is exactly the poison ratio up to sampling noise, so this quality
// standard lets the collector estimate attack intensity without provenance
// information.
//
// The slice form counts exactly in one pass — it is the reference
// implementation and the one the ExactQuantiles paths rely on being
// bit-stable.
func ExcessMassQuality(roundValues, sortedReference []float64) float64 {
	if len(roundValues) == 0 || len(sortedReference) == 0 {
		return math.NaN()
	}
	q90 := stats.QuantileSorted(sortedReference, 0.90)
	above := 0
	for _, v := range roundValues {
		if v > q90 {
			above++
		}
	}
	obs := float64(above) / float64(len(roundValues))
	excess := obs - 0.10
	if excess < 0 {
		excess = 0
	}
	// excess ∈ [0, 0.9]; normalize to a quality score.
	return stats.Clamp(1-excess/0.9, 0, 1)
}

// ExcessMassQualitySummary is ExcessMassQuality resolved by one rank query
// against a round summary the caller already holds (the engines reuse the
// summary they built for threshold resolution — no extra pass over the
// data). Its score is within the summary's ε of the exact slice form.
func ExcessMassQualitySummary(round *summary.Summary, sortedReference []float64) float64 {
	if round == nil || round.Size() == 0 || len(sortedReference) == 0 {
		return math.NaN()
	}
	q90 := stats.QuantileSorted(sortedReference, 0.90)
	obs := 1 - round.Rank(q90) // mass strictly above Q90, within ε
	excess := obs - 0.10
	if excess < 0 {
		excess = 0
	}
	// excess ∈ [0, 0.9]; normalize to a quality score.
	return stats.Clamp(1-excess/0.9, 0, 1)
}

// EvasionQuality is the quality standard of the Table III study: it
// estimates the fraction of poison placed evasively (near the 90th
// percentile, below the soft trim) rather than at the equilibrium position
// (the 99th percentile). The estimate compares observed mass in the
// [Q88, Q92] reference window with the expected honest 4%, scaled by the
// known attack ratio (complete information: the quality standard includes
// the agreed poison budget).
//
// Returned quality is 1 − evasionRatio, so Algorithm 1's trigger
// "Quality < Baseline − Red" fires when the evading fraction exceeds its
// agreed bound plus the redundancy.
func EvasionQuality(attackRatio float64) QualityFn {
	return func(roundValues, sortedReference []float64) float64 {
		if len(roundValues) == 0 || len(sortedReference) == 0 || attackRatio <= 0 {
			return math.NaN()
		}
		lo := stats.QuantileSorted(sortedReference, 0.88)
		hi := stats.QuantileSorted(sortedReference, 0.92)
		in := 0
		for _, v := range roundValues {
			if v > lo && v <= hi {
				in++
			}
		}
		// Honest mass expected in the window, diluted by the poison share.
		poisonShare := attackRatio / (1 + attackRatio)
		expectedHonest := 0.04 * (1 - poisonShare)
		excess := float64(in)/float64(len(roundValues)) - expectedHonest
		if excess < 0 {
			excess = 0
		}
		evading := excess / poisonShare // fraction of the poison budget that evades
		return stats.Clamp(1-evading, 0, 1)
	}
}

// sortedCopy returns a sorted copy of xs.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	stats.SortFloat64s(out)
	return out
}

// jitterScale returns the tie-breaking jitter width for a sorted reference:
// 10⁻⁶ of the data range (1 when the range is degenerate).
func jitterScale(sortedRef []float64) float64 {
	if len(sortedRef) == 0 {
		return 1
	}
	return jitterRange(sortedRef[0], sortedRef[len(sortedRef)-1])
}

// jitterRange is jitterScale for a known [min, max] (as tracked exactly by
// a summary stream).
func jitterRange(min, max float64) float64 {
	r := max - min
	if r <= 0 || math.IsInf(r, 0) || math.IsNaN(r) {
		return 1
	}
	return r * 1e-6
}
