package stats

import (
	"math"
	"testing"
)

func TestNewRandDeterministic(t *testing.T) {
	a, b := NewRand(1), NewRand(1)
	for i := 0; i < 10; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed should produce identical streams")
		}
	}
}

func TestNormalMoments(t *testing.T) {
	rng := NewRand(3)
	xs := NormalSlice(rng, 100000, 2, 3)
	if m := Mean(xs); math.Abs(m-2) > 0.05 {
		t.Errorf("Normal mean = %v, want ≈2", m)
	}
	if s := StdDev(xs); math.Abs(s-3) > 0.05 {
		t.Errorf("Normal stddev = %v, want ≈3", s)
	}
}

func TestUniformSliceRange(t *testing.T) {
	rng := NewRand(4)
	xs := UniformSlice(rng, 10000, -2, 5)
	mn, _ := Min(xs)
	mx, _ := Max(xs)
	if mn < -2 || mx >= 5 {
		t.Errorf("Uniform out of range: [%v, %v]", mn, mx)
	}
	if m := Mean(xs); math.Abs(m-1.5) > 0.1 {
		t.Errorf("Uniform mean = %v, want ≈1.5", m)
	}
}

func TestLaplaceMoments(t *testing.T) {
	rng := NewRand(5)
	n := 200000
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = Laplace(rng, 1, 2)
	}
	if m := Mean(xs); math.Abs(m-1) > 0.05 {
		t.Errorf("Laplace mean = %v, want ≈1", m)
	}
	// Variance of Laplace(mu, b) is 2b² = 8.
	if v := Variance(xs); math.Abs(v-8) > 0.4 {
		t.Errorf("Laplace variance = %v, want ≈8", v)
	}
}

func TestMixtureWeights(t *testing.T) {
	rng := NewRand(6)
	comps := []MixtureComponent{
		{Weight: 3, Mu: -10, Sigma: 0.1},
		{Weight: 1, Mu: 10, Sigma: 0.1},
	}
	xs := make([]float64, 40000)
	for i := range xs {
		xs[i] = Mixture(rng, comps)
	}
	var left int
	for _, x := range xs {
		if x < 0 {
			left++
		}
	}
	frac := float64(left) / float64(len(xs))
	if math.Abs(frac-0.75) > 0.02 {
		t.Errorf("mixture left fraction = %v, want ≈0.75", frac)
	}
}

func TestMixtureSingleComponent(t *testing.T) {
	rng := NewRand(8)
	comps := []MixtureComponent{{Weight: 1, Mu: 5, Sigma: 0.5}}
	x := Mixture(rng, comps)
	if x < 0 || x > 10 {
		t.Errorf("single-component mixture sample %v implausible", x)
	}
}

func TestShufflePreservesMultiset(t *testing.T) {
	rng := NewRand(7)
	xs := []float64{1, 2, 3, 4, 5}
	sum := Sum(xs)
	Shuffle(rng, xs)
	if Sum(xs) != sum || len(xs) != 5 {
		t.Errorf("Shuffle altered contents: %v", xs)
	}
}

func TestSampleWithout(t *testing.T) {
	rng := NewRand(9)
	idx := SampleWithout(rng, 10, 5)
	if len(idx) != 5 {
		t.Fatalf("got %d indices, want 5", len(idx))
	}
	seen := map[int]bool{}
	for _, i := range idx {
		if i < 0 || i >= 10 {
			t.Errorf("index %d out of range", i)
		}
		if seen[i] {
			t.Errorf("duplicate index %d", i)
		}
		seen[i] = true
	}
	defer func() {
		if recover() == nil {
			t.Error("SampleWithout(n<k) should panic")
		}
	}()
	SampleWithout(rng, 2, 3)
}

func TestBernoulli(t *testing.T) {
	rng := NewRand(10)
	n, hits := 100000, 0
	for i := 0; i < n; i++ {
		if Bernoulli(rng, 0.3) {
			hits++
		}
	}
	frac := float64(hits) / float64(n)
	if math.Abs(frac-0.3) > 0.01 {
		t.Errorf("Bernoulli(0.3) rate = %v", frac)
	}
	if Bernoulli(rng, 0) {
		t.Error("Bernoulli(0) fired")
	}
}
