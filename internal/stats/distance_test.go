package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestEuclideanDistances(t *testing.T) {
	a := []float64{0, 0}
	b := []float64{3, 4}
	if got := SquaredEuclidean(a, b); got != 25 {
		t.Errorf("SquaredEuclidean = %v, want 25", got)
	}
	if got := Euclidean(a, b); got != 5 {
		t.Errorf("Euclidean = %v, want 5", got)
	}
	if got := Manhattan(a, b); got != 7 {
		t.Errorf("Manhattan = %v, want 7", got)
	}
}

func TestDistancePanicsOnMismatch(t *testing.T) {
	for name, f := range map[string]func(){
		"SquaredEuclidean": func() { SquaredEuclidean([]float64{1}, []float64{1, 2}) },
		"Manhattan":        func() { Manhattan([]float64{1}, []float64{1, 2}) },
		"Dot":              func() { Dot([]float64{1}, []float64{1, 2}) },
		"AddInPlace":       func() { AddInPlace([]float64{1}, []float64{1, 2}) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("%s should panic on dimension mismatch", name)
				}
			}()
			f()
		})
	}
}

func TestDotNormScale(t *testing.T) {
	if got := Dot([]float64{1, 2, 3}, []float64{4, 5, 6}); got != 32 {
		t.Errorf("Dot = %v, want 32", got)
	}
	if got := Norm([]float64{3, 4}); got != 5 {
		t.Errorf("Norm = %v, want 5", got)
	}
	v := Scale([]float64{1, 2}, 3)
	if v[0] != 3 || v[1] != 6 {
		t.Errorf("Scale = %v", v)
	}
}

func TestAddInPlace(t *testing.T) {
	a := []float64{1, 2}
	AddInPlace(a, []float64{10, 20})
	if a[0] != 11 || a[1] != 22 {
		t.Errorf("AddInPlace = %v", a)
	}
}

func TestMeanVector(t *testing.T) {
	m, err := MeanVector([][]float64{{1, 2}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if m[0] != 2 || m[1] != 3 {
		t.Errorf("MeanVector = %v", m)
	}
	if _, err := MeanVector(nil); err != ErrEmpty {
		t.Errorf("MeanVector(empty) err = %v", err)
	}
	if _, err := MeanVector([][]float64{{1}, {1, 2}}); err == nil {
		t.Error("ragged rows should error")
	}
}

// Property: distance axioms — non-negativity, identity, symmetry, and the
// triangle inequality for Euclidean distance.
func TestEuclideanMetricAxioms(t *testing.T) {
	gen := func(raw []float64) []float64 {
		out := make([]float64, 4)
		for i := 0; i < 4 && i < len(raw); i++ {
			x := raw[i]
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e6 {
				x = 0
			}
			out[i] = x
		}
		return out
	}
	f := func(ra, rb, rc []float64) bool {
		a, b, c := gen(ra), gen(rb), gen(rc)
		dab, dba := Euclidean(a, b), Euclidean(b, a)
		dac, dbc := Euclidean(a, c), Euclidean(b, c)
		const tol = 1e-9
		if dab < 0 || math.Abs(dab-dba) > tol {
			return false
		}
		if Euclidean(a, a) != 0 {
			return false
		}
		return dac <= dab+dbc+tol
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// A squared sum that overflows does not make a finite distance +Inf: the
// difference is measured in units of its largest coordinate instead, so
// only a distance past math.MaxFloat64 reads +Inf. A squared sum that
// fits keeps the plain formula bit for bit.
func TestEuclideanOverflow(t *testing.T) {
	for _, c := range []struct {
		a, b []float64
		want float64
		ulps uint64
	}{
		{[]float64{1e155}, []float64{0}, 1e155, 0},
		{[]float64{1.7e308, 0}, []float64{0, 0}, 1.7e308, 0},
		{[]float64{3e200, 4e200}, []float64{0, 0}, 5e200, 2},
		{[]float64{1.7e308, 1.7e308}, []float64{0, 0}, math.Inf(1), 0},
		{[]float64{1.7e308}, []float64{-1.7e308}, math.Inf(1), 0},
	} {
		got := Euclidean(c.a, c.b)
		d := math.Float64bits(got) - math.Float64bits(c.want)
		if math.Float64bits(got) < math.Float64bits(c.want) {
			d = -d
		}
		if math.IsNaN(got) || d > c.ulps {
			t.Errorf("Euclidean(%v, %v) = %v, want %v within %d ulps", c.a, c.b, got, c.want, c.ulps)
		}
	}
	a, b := []float64{0.3, -1.7, 2.9, 1e-3}, []float64{1.1, 0.2, -0.5, 4}
	if got, want := Euclidean(a, b), math.Sqrt(SquaredEuclidean(a, b)); math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("Euclidean(%v, %v) = %v, want the plain formula's %v", a, b, got, want)
	}
}
