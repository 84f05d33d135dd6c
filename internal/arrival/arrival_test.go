package arrival

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/attack"
	"repro/internal/ldp"
	"repro/internal/stats"
	"repro/internal/wire"
)

func scalarSpec(honest, poison int) Spec {
	return Spec{
		HonestN: honest, PoisonN: poison,
		Inject: attack.PointSpec(0.99),
		Jitter: 1e-6,
	}
}

func TestSpecWireRoundTrip(t *testing.T) {
	s := Spec{
		HonestN: 100, PoisonN: 20,
		Inject: attack.InjectionSpec{Kind: attack.SpecMixture, P: 0.7, Lo: 0.9, Hi: 0.99},
		Jitter: 0.5,
	}
	s2 := s
	s2.HonestN, s2.PoisonN = 99, 21
	cells := []Spec{s, s2}
	g := SpecToWire([]int64{42, 43}, cells)
	got, err := SpecFromWire(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != s || got[1] != s2 {
		t.Fatalf("round trip: %+v != %+v", got, cells)
	}
	if g.Cells[0].Seed != 42 || g.Cells[1].Seed != 43 {
		t.Fatalf("seeds not carried: %+v", g.Cells)
	}
	if _, err := SpecFromWire(nil); err == nil {
		t.Fatal("nil gen spec accepted")
	}
	empty := SpecToWire([]int64{1}, []Spec{s})
	empty.Cells = nil
	if _, err := SpecFromWire(empty); err == nil {
		t.Fatal("gen spec without cells accepted")
	}
	bad := SpecToWire([]int64{1}, []Spec{s})
	bad.InjectKind = 99
	if _, err := SpecFromWire(bad); err == nil {
		t.Fatal("bad inject kind accepted")
	}
	neg := SpecToWire([]int64{1, 2}, cells)
	neg.Cells[1].HonestN = -1
	if _, err := SpecFromWire(neg); err == nil {
		t.Fatal("negative count accepted")
	}
}

func TestScalarDrawDeterministicAndShaped(t *testing.T) {
	ref := stats.NormalSlice(stats.NewRand(1), 2000, 0, 1)
	sorted := append([]float64(nil), ref...)
	sort.Float64s(sorted)
	g := &Scalar{Ref: sorted}
	spec := scalarSpec(300, 60)

	a, pctA, err := g.Draw(stats.NewShardRand(7, 2, 3), spec)
	if err != nil {
		t.Fatal(err)
	}
	b, pctB, err := g.Draw(stats.NewShardRand(7, 2, 3), spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 360 || pctA != pctB {
		t.Fatalf("draws diverged: %d values, pct %v vs %v", len(a), pctA, pctB)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("value %d diverged between identical seeds", i)
		}
	}
	if math.Abs(pctA-0.99*60) > 1e-9 {
		t.Fatalf("point injection pct sum %v, want %v", pctA, 0.99*60)
	}
	// Poison sits in the tail near the commanded percentile.
	q99 := stats.QuantileSorted(sorted, 0.99)
	for i := 300; i < 360; i++ {
		if math.Abs(a[i]-q99) > 1e-3 {
			t.Fatalf("poison %d at %v, want ≈ %v", i, a[i], q99)
		}
	}
	// Different cells draw different arrivals.
	c, _, err := g.Draw(stats.NewShardRand(7, 3, 3), spec)
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("distinct shards drew identical arrivals")
	}
}

func TestScalarDrawValidation(t *testing.T) {
	ok := &Scalar{Ref: []float64{1}}
	if _, _, err := ok.Draw(stats.NewRand(1), Spec{HonestN: -1}); err == nil {
		t.Fatal("negative honest count accepted")
	}
	if _, _, err := ok.Draw(stats.NewRand(1), Spec{PoisonN: 1}); err == nil {
		t.Fatal("poison without an injection spec accepted")
	}
	empty := &Scalar{}
	if _, _, err := empty.Draw(stats.NewRand(1), scalarSpec(1, 0)); err == nil {
		t.Fatal("unconfigured generator accepted")
	}
}

func TestRowsDraw(t *testing.T) {
	rng := stats.NewRand(2)
	n, dim := 200, 3
	x := wire.Matrix{Dim: dim, Data: stats.NormalSlice(rng, n*dim, 0, 1)}
	y := make([]uint32, n)
	for i := range y {
		y[i] = uint32(i % 4)
	}
	g, err := NewRows(x, y, 4, -1)
	if err != nil {
		t.Fatal(err)
	}
	center := []float64{0, 0, 0}
	scaleQ := func(pct float64) float64 { return 1 + pct } // injective scale
	spec := Spec{HonestN: 50, PoisonN: 10, Inject: attack.PointSpec(0.95), Jitter: 0}

	d, pctSum, err := g.Draw(stats.NewShardRand(9, 0, 1), spec, center, scaleQ)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Honest) != 50 || d.Poison.Len() != 10 || len(d.PoisonLabels) != 10 || d.Len() != 60 {
		t.Fatalf("drew %d honest, %d poison rows, %d poison labels", len(d.Honest), d.Poison.Len(), len(d.PoisonLabels))
	}
	if math.Abs(pctSum-0.95*10) > 1e-9 {
		t.Fatalf("pct sum %v", pctSum)
	}
	// Honest rows are dataset rows themselves, read by index.
	for i, j := range d.Honest {
		if row := g.Row(&d, i); &row[0] != &x.Data[int(j)*dim] {
			t.Fatalf("honest row %d is not dataset row %d", i, j)
		}
	}
	// Poison rows sit at the commanded distance exactly (jitter 0).
	want := scaleQ(0.95)
	for k := range d.Poison.Len() {
		if dist := stats.Euclidean(g.Row(&d, 50+k), center); math.Abs(dist-want) > 1e-9 {
			t.Fatalf("poison row %d at distance %v, want %v", k, dist, want)
		}
		if d.PoisonLabels[k] >= 4 {
			t.Fatalf("poison label %d outside classes", d.PoisonLabels[k])
		}
	}
	// Deterministic per cell.
	again, _, err := g.Draw(stats.NewShardRand(9, 0, 1), spec, center, scaleQ)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(d.Honest, again.Honest) || !slices.Equal(d.Poison.Data, again.Poison.Data) ||
		!slices.Equal(d.PoisonLabels, again.PoisonLabels) {
		t.Fatal("draw diverged between identical seeds")
	}
	// Unlabeled dataset → nil labels.
	gu, err := NewRows(x, nil, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d, _, err = gu.Draw(stats.NewShardRand(9, 0, 1), spec, center, scaleQ); err != nil {
		t.Fatal(err)
	}
	if d.PoisonLabels != nil {
		t.Fatal("unlabeled draw produced labels")
	}
	// A center of another width is refused before any row is placed.
	if _, _, err := g.Draw(stats.NewShardRand(9, 0, 1), spec, []float64{0, 0}, scaleQ); err == nil {
		t.Fatal("a 2-dim center for a 3-dim dataset accepted")
	}
}

// PoisonRow places a row at the commanded distance along the base row's
// offset. An ordinary row keeps the plain formula bit for bit, which every
// pinned row-game board rests on; a base so far out that its squared
// offset or its offset times the distance overflows is measured in units
// of its largest coordinate instead; and a row that cannot be represented
// is an error, never a NaN or a silent row at the center.
func TestPoisonRow(t *testing.T) {
	plain := func(center, base []float64, dist float64) []float64 {
		row := make([]float64, len(center))
		norm := 0.0
		for i := range row {
			row[i] = base[i] - center[i]
			norm += row[i] * row[i]
		}
		norm = math.Sqrt(norm)
		for i := range row {
			row[i] = center[i] + row[i]*dist/norm
		}
		return row
	}
	for _, c := range []struct {
		name         string
		center, base []float64
		dist         float64
		want         []float64 // nil: compare with the plain formula
		err          bool
	}{
		{name: "ordinary row", center: []float64{0.5, -1, 2}, base: []float64{1.25, 3, -0.75}, dist: 2.5},
		{name: "squared offset overflows", center: []float64{1, 1}, base: []float64{1e200, 1e200}, dist: 3,
			want: []float64{1 + 3/math.Sqrt2, 1 + 3/math.Sqrt2}},
		{name: "base coordinate near the float64 limit", center: []float64{0, 0}, base: []float64{1.7e308, 0}, dist: 3,
			want: []float64{3, 0}},
		{name: "offset times distance overflows", center: []float64{0}, base: []float64{1e200}, dist: 1e200,
			want: []float64{1e200}},
		{name: "offset overflows", center: []float64{-1e308}, base: []float64{1e308}, dist: 3, err: true},
	} {
		row := make([]float64, len(c.center))
		err := PoisonRow(row, c.center, c.base, c.dist)
		if c.err {
			if err == nil {
				t.Errorf("%s: row %v, want an error", c.name, row)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		want := c.want
		if want == nil {
			want = plain(c.center, c.base, c.dist)
			for i := range row {
				if math.Float64bits(row[i]) != math.Float64bits(want[i]) {
					t.Errorf("%s: row %v, plain formula %v", c.name, row, want)
					break
				}
			}
		}
		for i := range row {
			if !(math.Abs(row[i]-want[i]) <= 1e-12*math.Max(1, math.Abs(want[i]))) {
				t.Errorf("%s: row %v, want %v", c.name, row, want)
				break
			}
		}
		d := 0.0 // the distance from the center, folded without squaring
		for i := range row {
			d = math.Hypot(d, row[i]-c.center[i])
		}
		if !(math.Abs(d-c.dist) <= 1e-12*c.dist) {
			t.Errorf("%s: row %v at distance %v from the center, want %v", c.name, row, d, c.dist)
		}
	}
}

func TestLDPDraw(t *testing.T) {
	rng := stats.NewRand(3)
	pool := make([]float64, 1000)
	for i := range pool {
		pool[i] = stats.Clamp(rng.NormFloat64()*0.3, -1, 1)
	}
	sort.Float64s(pool)
	mech, err := ldp.NewPiecewise(2)
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewLDP(pool, mech)
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{HonestN: 400, PoisonN: 80, Inject: attack.PointSpec(0.99)}
	a, inputSum, pctSum, err := g.Draw(stats.NewShardRand(4, 1, 2), spec)
	if err != nil {
		t.Fatal(err)
	}
	b, inputSumB, _, err := g.Draw(stats.NewShardRand(4, 1, 2), spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 480 || inputSum != inputSumB {
		t.Fatalf("draws diverged: %d reports, input sums %v vs %v", len(a), inputSum, inputSumB)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("report %d diverged between identical seeds", i)
		}
	}
	if math.Abs(pctSum-0.99*80) > 1e-9 {
		t.Fatalf("pct sum %v", pctSum)
	}
	lo, hi := mech.OutputBounds()
	for i, v := range a {
		if v < lo || v > hi {
			t.Fatalf("report %d = %v outside mechanism support [%v, %v]", i, v, lo, hi)
		}
	}
}

// Every generator samples honest arrivals from its one sorted pool: the
// i-th honest draw is pool[rng.Intn(n)] on the cell's stream (then, for
// LDP and GRR, that input's Perturb draws), and a constructor refuses a
// pool that is not in sort.Float64s order or holds a NaN.
func TestHonestDrawsIndexTheSortedPool(t *testing.T) {
	const n, seed = 300, 41
	rng := stats.NewRand(6)
	sorted := make([]float64, n)
	cats := make([]float64, n)
	for i := range sorted {
		sorted[i] = stats.Clamp(rng.NormFloat64()*0.4, -1, 1)
		cats[i] = float64(rng.Intn(5))
	}
	sort.Float64s(sorted)
	sort.Float64s(cats)
	pw, err := ldp.NewPiecewise(2)
	if err != nil {
		t.Fatal(err)
	}
	grr, err := ldp.NewGRRValue(1.5, 5)
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{HonestN: 80}

	scalar, err := NewScalar(sorted)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := scalar.Draw(stats.NewRand(seed), spec)
	if err != nil {
		t.Fatal(err)
	}
	want := stats.NewRand(seed)
	for i, v := range got {
		if w := sorted[want.Intn(n)]; v != w {
			t.Fatalf("scalar honest %d = %v, want Ref[Intn] = %v", i, v, w)
		}
	}

	ldpGen, err := NewLDP(sorted, pw)
	if err != nil {
		t.Fatal(err)
	}
	grrGen, err := NewLDP(cats, grr)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		pool []float64
		mech ldp.Mechanism
		draw func(*rand.Rand, Spec) ([]float64, float64, float64, error)
	}{
		{"LDP", sorted, pw, ldpGen.Draw},
		{"GRR", cats, grr, grrGen.Draw},
	} {
		got, inputSum, _, err := c.draw(stats.NewRand(seed), spec)
		if err != nil {
			t.Fatal(err)
		}
		want := stats.NewRand(seed)
		var wantSum float64
		for i, v := range got {
			x := c.pool[want.Intn(n)]
			wantSum += x
			if w := c.mech.Perturb(want, x); v != w {
				t.Fatalf("%s honest %d = %v, want Perturb(pool[Intn]) = %v", c.name, i, v, w)
			}
		}
		if inputSum != wantSum {
			t.Fatalf("%s input sum %v, want %v", c.name, inputSum, wantSum)
		}
	}

	for name, pool := range map[string][]float64{
		"unsorted": {0, 2, 1},
		"NaN-led":  {math.NaN(), 0, 1},
		"empty":    nil,
	} {
		if _, err := NewScalar(pool); err == nil {
			t.Errorf("NewScalar accepted the %s reference", name)
		}
		if _, err := NewLDP(pool, pw); err == nil {
			t.Errorf("NewLDP accepted the %s pool", name)
		}
		if _, err := NewLDP(pool, grr); err == nil {
			t.Errorf("NewLDP accepted the %s GRR pool", name)
		}
	}
}

func TestMechWireCodec(t *testing.T) {
	pw, _ := ldp.NewPiecewise(2)
	du, _ := ldp.NewDuchi(1.5)
	grr, _ := ldp.NewGRRValue(1.2, 6)
	for _, m := range []ldp.Mechanism{pw, du, grr} {
		kind, eps, k, err := MechToWire(m)
		if err != nil {
			t.Fatal(err)
		}
		back, err := MechFromWire(kind, eps, k)
		if err != nil {
			t.Fatal(err)
		}
		if back.Epsilon() != m.Epsilon() {
			t.Fatalf("epsilon %v != %v", back.Epsilon(), m.Epsilon())
		}
		// Same code, same ε (and arity) → identical perturbation stream.
		a, b := stats.NewRand(5), stats.NewRand(5)
		for i := 0; i < 50; i++ {
			if m.Perturb(a, 0.25) != back.Perturb(b, 0.25) {
				t.Fatal("reconstructed mechanism diverged")
			}
		}
	}
	if g, ok := any(grr).(interface{ K() int }); !ok || g.K() != 6 {
		t.Fatal("GRR arity lost")
	}
	if _, _, _, err := MechToWire(nonCodable{}); err == nil {
		t.Fatal("non-codable mechanism accepted")
	}
	if _, err := MechFromWire(Mech(99), 1, 0); err == nil {
		t.Fatal("unknown mechanism code accepted")
	}
	if _, err := MechFromWire(MechGRR, 1, 1); err == nil {
		t.Fatal("GRR with one category accepted")
	}
}

type nonCodable struct{ ldp.Mechanism }
