package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSum(t *testing.T) {
	cases := []struct {
		name string
		in   []float64
		want float64
	}{
		{"empty", nil, 0},
		{"single", []float64{3.5}, 3.5},
		{"mixed", []float64{1, -2, 3.5}, 2.5},
		{"zeros", []float64{0, 0, 0}, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := Sum(c.in); got != c.want {
				t.Errorf("Sum(%v) = %v, want %v", c.in, got, c.want)
			}
		})
	}
}

func TestMean(t *testing.T) {
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("Mean = %v, want 2.5", got)
	}
	if !math.IsNaN(Mean(nil)) {
		t.Error("Mean(empty) should be NaN")
	}
}

func TestVarianceAndStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Variance(xs); math.Abs(got-4) > 1e-12 {
		t.Errorf("Variance = %v, want 4", got)
	}
	if got := StdDev(xs); math.Abs(got-2) > 1e-12 {
		t.Errorf("StdDev = %v, want 2", got)
	}
	if !math.IsNaN(Variance(nil)) {
		t.Error("Variance(empty) should be NaN")
	}
}

func TestVarianceConstantSlice(t *testing.T) {
	xs := []float64{7, 7, 7, 7}
	if got := Variance(xs); got != 0 {
		t.Errorf("Variance of constant slice = %v, want 0", got)
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 4, 1, 5}
	mn, err := Min(xs)
	if err != nil || mn != -1 {
		t.Errorf("Min = %v, %v; want -1, nil", mn, err)
	}
	mx, err := Max(xs)
	if err != nil || mx != 5 {
		t.Errorf("Max = %v, %v; want 5, nil", mx, err)
	}
	if _, err := Min(nil); err != ErrEmpty {
		t.Errorf("Min(empty) err = %v, want ErrEmpty", err)
	}
	if _, err := Max(nil); err != ErrEmpty {
		t.Errorf("Max(empty) err = %v, want ErrEmpty", err)
	}
}

func TestMSEAndSSE(t *testing.T) {
	ys := []float64{1, 2, 3}
	yh := []float64{1, 1, 5}
	mse, err := MSE(ys, yh)
	if err != nil {
		t.Fatal(err)
	}
	if want := (0.0 + 1 + 4) / 3; math.Abs(mse-want) > 1e-12 {
		t.Errorf("MSE = %v, want %v", mse, want)
	}
	sse, err := SSE(ys, yh)
	if err != nil {
		t.Fatal(err)
	}
	if sse != 5 {
		t.Errorf("SSE = %v, want 5", sse)
	}
	if _, err := MSE(ys, yh[:2]); err == nil {
		t.Error("MSE length mismatch should error")
	}
	if _, err := MSE(nil, nil); err != ErrEmpty {
		t.Errorf("MSE(empty) err = %v, want ErrEmpty", err)
	}
	if _, err := SSE(ys, yh[:1]); err == nil {
		t.Error("SSE length mismatch should error")
	}
}

func TestClamp(t *testing.T) {
	if got := Clamp(5, 0, 1); got != 1 {
		t.Errorf("Clamp(5,0,1) = %v", got)
	}
	if got := Clamp(-5, 0, 1); got != 0 {
		t.Errorf("Clamp(-5,0,1) = %v", got)
	}
	if got := Clamp(0.5, 0, 1); got != 0.5 {
		t.Errorf("Clamp(0.5,0,1) = %v", got)
	}
}

func TestIsFiniteSlice(t *testing.T) {
	if !IsFiniteSlice([]float64{1, 2, 3}) {
		t.Error("finite slice misreported")
	}
	if IsFiniteSlice([]float64{1, math.NaN()}) {
		t.Error("NaN slice misreported")
	}
	if IsFiniteSlice([]float64{math.Inf(1)}) {
		t.Error("Inf slice misreported")
	}
	if IsFiniteSlice([]float64{math.MaxFloat64, math.Inf(-1), -math.MaxFloat64}) {
		t.Error("-Inf slice misreported")
	}
	if !IsFiniteSlice(nil) {
		t.Error("empty slice should count as finite")
	}
}

// Property: variance is non-negative and mean lies within [min, max].
func TestMeanVarianceProperties(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			// Constrain magnitude to avoid float overflow artifacts.
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e12 {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		m := Mean(xs)
		v := Variance(xs)
		mn, _ := Min(xs)
		mx, _ := Max(xs)
		const slack = 1e-6
		return v >= -slack && m >= mn-slack && m <= mx+slack
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: shifting all values by c shifts the mean by c and leaves the
// variance unchanged (up to float tolerance).
func TestShiftInvariance(t *testing.T) {
	f := func(raw []float64, shift float64) bool {
		if math.IsNaN(shift) || math.IsInf(shift, 0) || math.Abs(shift) > 1e6 {
			return true
		}
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e6 {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		shifted := make([]float64, len(xs))
		for i, x := range xs {
			shifted[i] = x + shift
		}
		tol := 1e-6 * (1 + math.Abs(shift)) * float64(len(xs))
		return math.Abs(Mean(shifted)-(Mean(xs)+shift)) < tol &&
			math.Abs(Variance(shifted)-Variance(xs)) < tol*100
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
