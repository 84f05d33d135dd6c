package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestQuantileBasics(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct {
		q, want float64
	}{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestQuantileInterpolation(t *testing.T) {
	xs := []float64{10, 20}
	if got := Quantile(xs, 0.5); got != 15 {
		t.Errorf("Quantile(0.5) = %v, want 15", got)
	}
	if got := Quantile(xs, 0.25); got != 12.5 {
		t.Errorf("Quantile(0.25) = %v, want 12.5", got)
	}
}

func TestQuantileEdgeCases(t *testing.T) {
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("Quantile(empty) should be NaN")
	}
	if got := Quantile([]float64{7}, 0.99); got != 7 {
		t.Errorf("Quantile(single) = %v, want 7", got)
	}
	// Out-of-range q is clamped.
	xs := []float64{1, 2, 3}
	if got := Quantile(xs, -1); got != 1 {
		t.Errorf("Quantile(q<0) = %v, want 1", got)
	}
	if got := Quantile(xs, 2); got != 3 {
		t.Errorf("Quantile(q>1) = %v, want 3", got)
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Quantile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("Quantile mutated input: %v", xs)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if got := Percentile(xs, 50); got != 3 {
		t.Errorf("Percentile(50) = %v, want 3", got)
	}
	if got := Percentile(xs, 100); got != 5 {
		t.Errorf("Percentile(100) = %v, want 5", got)
	}
}

func TestPercentileRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct {
		v, want float64
	}{
		{0, 0}, {1, 0.2}, {3, 0.6}, {5, 1}, {10, 1}, {2.5, 0.4},
	}
	for _, c := range cases {
		if got := PercentileRankSorted(xs, c.v); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("PercentileRankSorted(%v) = %v, want %v", c.v, got, c.want)
		}
	}
	if !math.IsNaN(PercentileRankSorted(nil, 1)) {
		t.Error("PercentileRankSorted(empty) should be NaN")
	}
}

func TestMedian(t *testing.T) {
	if got := Median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("Median = %v, want 3", got)
	}
	if got := Median([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("Median = %v, want 2.5", got)
	}
}

func TestTrimAbove(t *testing.T) {
	xs := []float64{5, 1, 9, 3, 7}
	kept := TrimAbove(xs, 5)
	want := []float64{5, 1, 3}
	if len(kept) != len(want) {
		t.Fatalf("TrimAbove kept %v, want %v", kept, want)
	}
	for i := range want {
		if kept[i] != want[i] {
			t.Errorf("TrimAbove[%d] = %v, want %v", i, kept[i], want[i])
		}
	}
	if got := TrimAbove(nil, 5); len(got) != 0 {
		t.Errorf("TrimAbove(empty) = %v", got)
	}
}

func TestTrimAtPercentile(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i)
	}
	kept, th := TrimAtPercentile(xs, 90)
	if math.Abs(th-89.1) > 1e-9 {
		t.Errorf("threshold = %v, want 89.1", th)
	}
	if len(kept) != 90 {
		t.Errorf("kept %d elements, want 90", len(kept))
	}
}

// Property: quantile is monotone in q and bounded by [min, max].
func TestQuantileMonotoneBounded(t *testing.T) {
	f := func(raw []float64, q1, q2 float64) bool {
		xs := finite(raw)
		if len(xs) == 0 {
			return true
		}
		q1, q2 = Clamp(math.Abs(q1)-math.Floor(math.Abs(q1)), 0, 1), Clamp(math.Abs(q2)-math.Floor(math.Abs(q2)), 0, 1)
		if q1 > q2 {
			q1, q2 = q2, q1
		}
		v1, v2 := Quantile(xs, q1), Quantile(xs, q2)
		mn, _ := Min(xs)
		mx, _ := Max(xs)
		return v1 <= v2 && v1 >= mn && v2 <= mx
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: trimming is idempotent — trimming twice at the same threshold
// equals trimming once.
func TestTrimIdempotent(t *testing.T) {
	f := func(raw []float64, th float64) bool {
		if math.IsNaN(th) {
			return true
		}
		xs := finite(raw)
		once := TrimAbove(xs, th)
		twice := TrimAbove(once, th)
		if len(once) != len(twice) {
			return false
		}
		for i := range once {
			if once[i] != twice[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: PercentileRankSorted is the inverse of QuantileSorted in the
// sense that QuantileSorted(xs, PercentileRankSorted(xs, v)) ≤ v for v in
// range.
func TestRankQuantileGalois(t *testing.T) {
	f := func(raw []float64) bool {
		xs := finite(raw)
		if len(xs) < 2 {
			return true
		}
		sort.Float64s(xs)
		for _, v := range xs {
			r := PercentileRankSorted(xs, v)
			qv := QuantileSorted(xs, r)
			if qv > v+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func finite(raw []float64) []float64 {
	xs := make([]float64, 0, len(raw))
	for _, x := range raw {
		if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e12 {
			xs = append(xs, x)
		}
	}
	return xs
}
