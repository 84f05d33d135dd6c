package arrival

import (
	"sort"
	"testing"

	"repro/internal/attack"
	"repro/internal/ldp"
	"repro/internal/stats"
)

// catPool draws n categories in [0, k) as the sorted float-embedded pool
// an LDP generator behind a GRR channel takes.
func catPool(n, k int, seed int64) []float64 {
	rng := stats.NewRand(seed)
	pool := make([]float64, n)
	for i := range pool {
		pool[i] = float64(rng.Intn(k))
	}
	sort.Float64s(pool)
	return pool
}

// A categorical pool behind a GRR channel: NewLDP refuses an entry the
// channel's InputClamper would move — out of [0, k) or not integral, as a
// MechGRR configure decoded off the wire can carry — while a numeric
// mechanism, which clamps nothing, takes any sorted pool.
func TestCategoricalValidation(t *testing.T) {
	mech, err := MechFromWire(MechGRR, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewLDP(nil, mech); err == nil {
		t.Fatal("empty pool accepted")
	}
	if _, err := NewLDP([]float64{0, 1}, nil); err == nil {
		t.Fatal("nil mechanism accepted")
	}
	if _, err := NewLDP([]float64{0, 4}, mech); err == nil {
		t.Fatal("out-of-domain category accepted")
	}
	if _, err := NewLDP([]float64{-1, 0}, mech); err == nil {
		t.Fatal("negative category accepted")
	}
	if _, err := NewLDP([]float64{0, 1.5}, mech); err == nil {
		t.Fatal("non-integral pool accepted")
	}
	if _, err := NewLDP([]float64{0, 3}, mech); err != nil {
		t.Fatal(err)
	}
	pw, err := ldp.NewPiecewise(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewLDP([]float64{-0.5, 1.5}, pw); err != nil {
		t.Fatalf("numeric pool refused: %v", err)
	}
}

// A GRR round's reports are categories, and identical seeds draw
// identical reports.
func TestCategoricalDeterministic(t *testing.T) {
	mech, err := ldp.NewGRRValue(2, 8)
	if err != nil {
		t.Fatal(err)
	}
	cat, err := NewLDP(catPool(300, 8, 22), mech)
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{HonestN: 100, PoisonN: 20, Inject: attack.PointSpec(0.99)}
	a, _, _, err := cat.Draw(stats.NewRand(5), spec)
	if err != nil {
		t.Fatal(err)
	}
	b, _, _, err := cat.Draw(stats.NewRand(5), spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("identical seeds diverged")
		}
		if a[i] != float64(int(a[i])) || a[i] < 0 || a[i] >= 8 {
			t.Fatalf("report %d = %v is not a category", i, a[i])
		}
	}
}
