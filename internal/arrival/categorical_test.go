package arrival

import (
	"sort"
	"testing"

	"repro/internal/attack"
	"repro/internal/ldp"
	"repro/internal/stats"
)

// catPool draws n categories in [0, k) as the sorted float-embedded pool
// a categorical generator takes.
func catPool(n, k int, seed int64) []float64 {
	rng := stats.NewRand(seed)
	pool := make([]float64, n)
	for i := range pool {
		pool[i] = float64(rng.Intn(k))
	}
	sort.Float64s(pool)
	return pool
}

func TestCategoricalValidation(t *testing.T) {
	mech, err := ldp.NewGRRValue(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewCategorical(nil, mech); err == nil {
		t.Fatal("empty pool accepted")
	}
	if _, err := NewCategorical([]float64{0, 1}, nil); err == nil {
		t.Fatal("nil mechanism accepted")
	}
	if _, err := NewCategorical([]float64{0, 4}, mech); err == nil {
		t.Fatal("out-of-domain category accepted")
	}
	if _, err := NewCategoricalFromWire([]float64{0, 1.5}, 2, 4); err == nil {
		t.Fatal("non-integral wire pool accepted")
	}
	if _, err := NewCategoricalFromWire([]float64{0, 3}, 2, 4); err != nil {
		t.Fatal(err)
	}
}

// The categorical generator's draw contract matches the numeric LDP
// generator over the float-embedded pool: same derived stream, identical
// reports and sums. This is what lets a GRR game run through either path —
// a worker configured with MechGRR reproduces a reference that drew through
// arrival.LDP, draw for draw.
func TestCategoricalDrawMatchesLDPEmbedding(t *testing.T) {
	const k = 6
	mech, err := ldp.NewGRRValue(1.5, k)
	if err != nil {
		t.Fatal(err)
	}
	pool := catPool(500, k, 21)
	cat, err := NewCategorical(pool, mech)
	if err != nil {
		t.Fatal(err)
	}
	num, err := NewLDP(pool, mech)
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{
		HonestN: 200, PoisonN: 40,
		Inject: attack.InjectionSpec{Kind: attack.SpecUniform, Lo: 0.9, Hi: 1},
	}
	a, aIn, aPct, err := cat.Draw(stats.NewRand(31), spec)
	if err != nil {
		t.Fatal(err)
	}
	b, bIn, bPct, err := num.Draw(stats.NewRand(31), spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) || aIn != bIn || aPct != bPct {
		t.Fatalf("draws diverged: %d/%d reports, inputSum %v/%v, pctSum %v/%v",
			len(a), len(b), aIn, bIn, aPct, bPct)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("report %d: %v vs %v", i, a[i], b[i])
		}
		if a[i] != float64(int(a[i])) || a[i] < 0 || a[i] >= k {
			t.Fatalf("report %d = %v is not a category", i, a[i])
		}
	}
}

func TestCategoricalDeterministic(t *testing.T) {
	mech, err := ldp.NewGRRValue(2, 8)
	if err != nil {
		t.Fatal(err)
	}
	cat, err := NewCategorical(catPool(300, 8, 22), mech)
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
	}
}
