package ldp

import (
	"math"
	"testing"

	"repro/internal/stats"
)

func TestGRRValueBoundsAndClamp(t *testing.T) {
	m, err := NewGRRValue(2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if m.Epsilon() != 2 || m.K() != 5 {
		t.Fatalf("eps %v k %d", m.Epsilon(), m.K())
	}
	if lo, hi := m.OutputBounds(); lo != 0 || hi != 4 {
		t.Fatalf("output bounds [%v, %v]", lo, hi)
	}
	for _, c := range []struct{ in, want float64 }{
		{-3, 0}, {-0.4, 0}, {0.4, 0}, {0.6, 1}, {2.5, 3}, {3.9, 4}, {99, 4},
	} {
		if got := m.ClampInput(c.in); got != c.want {
			t.Errorf("ClampInput(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	if _, err := NewGRRValue(2, 1); err == nil {
		t.Fatal("k=1 accepted")
	}
	if _, err := NewGRRValue(0, 5); err == nil {
		t.Fatal("eps=0 accepted")
	}
}

// The numeric adapter's channel must be the integer GRR bit for bit: same
// RNG stream, same reports.
func TestGRRValuePerturbMatchesGRR(t *testing.T) {
	m, err := NewGRRValue(1.5, 7)
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGRR(1.5, 7)
	if err != nil {
		t.Fatal(err)
	}
	a, b := stats.NewRand(9), stats.NewRand(9)
	for i := 0; i < 500; i++ {
		v := i % 7
		want, err := g.Perturb(a, v)
		if err != nil {
			t.Fatal(err)
		}
		if got := m.Perturb(b, float64(v)); got != float64(want) {
			t.Fatalf("report %d: %v vs %d", i, got, want)
		}
	}
}

// Mean inversion: unbiased on channel-simulated reports, and the
// sum-decomposable form equals the slice form exactly.
func TestGRRValueMeanEstimate(t *testing.T) {
	const k = 6
	m, err := NewGRRValue(2, k)
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRand(11)
	const n = 200000
	reports := make([]float64, n)
	var trueSum float64
	for i := range reports {
		v := rng.Intn(k) * rng.Intn(2) // skewed true distribution
		trueSum += float64(v)
		reports[i] = m.Perturb(rng, float64(v))
	}
	trueMean := trueSum / n
	est := m.MeanEstimate(reports)
	if math.Abs(est-trueMean) > 0.05 {
		t.Fatalf("estimate %v, true %v", est, trueMean)
	}
	var sum float64
	for _, r := range reports {
		sum += r
	}
	if got := m.MeanEstimateFromSum(sum, n); got != est {
		t.Fatalf("FromSum %v != MeanEstimate %v", got, est)
	}
	if !math.IsNaN(m.MeanEstimateFromSum(0, 0)) {
		t.Fatal("empty estimate not NaN")
	}
}

// The input-manipulation attack clamps forged inputs to the mechanism's
// own domain when it declares one: a forged category lands on a legal
// category, not on the numeric default [−1, 1].
func TestInputManipulatorRespectsInputClamper(t *testing.T) {
	m, err := NewGRRValue(2, 8)
	if err != nil {
		t.Fatal(err)
	}
	man, err := NewInputManipulator(m, 6.8)
	if err != nil {
		t.Fatal(err)
	}
	if man.input != 7 {
		t.Fatalf("forged input %v, want category 7", man.input)
	}
	// Numeric mechanisms keep the [−1, 1] clamp.
	pw, err := NewPiecewise(2)
	if err != nil {
		t.Fatal(err)
	}
	man, err = NewInputManipulator(pw, 6.8)
	if err != nil {
		t.Fatal(err)
	}
	if man.input != 1 {
		t.Fatalf("numeric forged input %v, want 1", man.input)
	}
}
