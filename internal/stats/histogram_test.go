package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewHistogramValidation(t *testing.T) {
	if _, err := NewHistogram(0, 1, 0); err == nil {
		t.Error("0 bins should error")
	}
	if _, err := NewHistogram(1, 1, 4); err == nil {
		t.Error("empty domain should error")
	}
	if _, err := NewHistogram(2, 1, 4); err == nil {
		t.Error("inverted domain should error")
	}
}

func TestHistogramBinning(t *testing.T) {
	h, err := NewHistogram(0, 10, 10)
	if err != nil {
		t.Fatal(err)
	}
	h.Add(0.5)  // bin 0
	h.Add(9.99) // bin 9
	h.Add(5)    // bin 5
	h.Add(-3)   // clamped to bin 0
	h.Add(42)   // clamped to bin 9
	if h.Counts[0] != 2 {
		t.Errorf("bin 0 = %v, want 2", h.Counts[0])
	}
	if h.Counts[9] != 2 {
		t.Errorf("bin 9 = %v, want 2", h.Counts[9])
	}
	if h.Counts[5] != 1 {
		t.Errorf("bin 5 = %v, want 1", h.Counts[5])
	}
	if h.total != 5 {
		t.Errorf("total = %v, want 5", h.total)
	}
}

func TestHistogramNaNGoesToBinZero(t *testing.T) {
	h, _ := NewHistogram(0, 1, 4)
	h.Add(math.NaN())
	if h.Counts[0] != 1 {
		t.Errorf("NaN should land in bin 0, got %v", h.Counts)
	}
}

func TestHistogramCenters(t *testing.T) {
	h, _ := NewHistogram(0, 10, 5)
	want := []float64{1, 3, 5, 7, 9}
	for i, w := range want {
		if got := h.Center(i); math.Abs(got-w) > 1e-12 {
			t.Errorf("Center(%d) = %v, want %v", i, got, w)
		}
	}
}

func TestHistogramFrequenciesAndMean(t *testing.T) {
	h, _ := NewHistogram(0, 4, 4)
	h.Add(0.5)
	h.Add(0.5)
	h.Add(3.5)
	f := h.Frequencies()
	if math.Abs(f[0]-2.0/3) > 1e-12 || math.Abs(f[3]-1.0/3) > 1e-12 {
		t.Errorf("Frequencies = %v", f)
	}
	// Mean of centers: (0.5*2 + 3.5)/3 = 1.5
	if got := h.Mean(); math.Abs(got-1.5) > 1e-12 {
		t.Errorf("Mean = %v, want 1.5", got)
	}
	empty, _ := NewHistogram(0, 1, 2)
	if !math.IsNaN(empty.Mean()) {
		t.Error("empty histogram Mean should be NaN")
	}
	ef := empty.Frequencies()
	for _, v := range ef {
		if v != 0 {
			t.Errorf("empty Frequencies = %v", ef)
		}
	}
}

func TestFromSamples(t *testing.T) {
	h, err := FromSamples([]float64{0.1, 0.9, 0.5}, 0, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if h.Counts[0] != 1 || h.Counts[1] != 2 {
		t.Errorf("FromSamples counts = %v", h.Counts)
	}
	if _, err := FromSamples(nil, 1, 0, 2); err == nil {
		t.Error("bad domain should error")
	}
}

// Property: frequencies always sum to 1 for non-empty histograms, and the
// histogram mean lies within the domain.
func TestHistogramInvariants(t *testing.T) {
	f := func(raw []float64) bool {
		h, err := NewHistogram(-100, 100, 32)
		if err != nil {
			return false
		}
		n := 0
		for _, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				continue
			}
			h.Add(x)
			n++
		}
		if n == 0 {
			return true
		}
		sum := Sum(h.Frequencies())
		m := h.Mean()
		return math.Abs(sum-1) < 1e-9 && m >= -100 && m <= 100
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
