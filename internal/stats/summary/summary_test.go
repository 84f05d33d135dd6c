package summary

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/stats"
)

// streamCase generates one named test stream. The four shapes mirror the
// regimes the collection game produces: uniform scales, heavy-tailed
// distance scales, adversarially ordered arrivals (sorted and sawtooth
// streams are the classic worst case for naive sketches), and
// duplicate-heavy quantized data.
type streamCase struct {
	name string
	gen  func(rng *rand.Rand, n int) []float64
}

func streamCases() []streamCase {
	return []streamCase{
		{"uniform", func(rng *rand.Rand, n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = rng.Float64()
			}
			return xs
		}},
		{"heavy-tailed", func(rng *rand.Rand, n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				// Pareto(α=1.1): infinite-variance tail.
				xs[i] = math.Pow(1-rng.Float64(), -1/1.1)
			}
			return xs
		}},
		{"ascending", func(rng *rand.Rand, n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = float64(i)
			}
			return xs
		}},
		{"descending", func(rng *rand.Rand, n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = float64(n - i)
			}
			return xs
		}},
		{"sawtooth", func(rng *rand.Rand, n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = float64(i % 97)
			}
			return xs
		}},
		{"duplicate-heavy", func(rng *rand.Rand, n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = float64(rng.Intn(7))
			}
			return xs
		}},
	}
}

// rankInterval returns the exact empirical-CDF interval [P(<v), P(≤v)] of v
// in sorted data — the slack between the two absorbs ties.
func rankInterval(sorted []float64, v float64) (lo, hi float64) {
	n := float64(len(sorted))
	less := sort.SearchFloat64s(sorted, v)
	leq := sort.Search(len(sorted), func(i int) bool { return sorted[i] > v })
	return float64(less) / n, float64(leq) / n
}

// Property: for every stream shape, Query(q) agrees with the exact quantile
// within the configured ε — the returned value's true rank is within ε of q.
func TestQueryWithinEpsilonAcrossStreams(t *testing.T) {
	const (
		n   = 20000
		eps = 0.01
	)
	for _, tc := range streamCases() {
		t.Run(tc.name, func(t *testing.T) {
			xs := tc.gen(stats.NewRand(1), n)
			st, err := New(eps, n)
			if err != nil {
				t.Fatal(err)
			}
			for _, x := range xs {
				st.Push(x)
			}
			sorted := append([]float64(nil), xs...)
			sort.Float64s(sorted)
			for q := 0.0; q <= 1.0001; q += 0.02 {
				v := st.Query(q)
				lo, hi := rankInterval(sorted, v)
				if q < lo-eps || q > hi+eps {
					t.Errorf("Query(%.2f) = %v with true rank [%v, %v]: outside ε=%v",
						q, v, lo, hi, eps)
				}
				// Cross-check against the exact estimator: the summary value
				// must sit between the exact quantiles at q∓ε.
				if lov, hiv := stats.QuantileSorted(sorted, q-eps), stats.QuantileSorted(sorted, q+eps); v < lov-1e-12 || v > hiv+1e-12 {
					t.Errorf("Query(%.2f) = %v outside exact [Q(q−ε), Q(q+ε)] = [%v, %v]",
						q, v, lov, hiv)
				}
			}
		})
	}
}

// Property: Rank(v) agrees with the exact empirical CDF within ε on every
// stream shape.
func TestRankWithinEpsilonAcrossStreams(t *testing.T) {
	const (
		n   = 20000
		eps = 0.01
	)
	for _, tc := range streamCases() {
		t.Run(tc.name, func(t *testing.T) {
			xs := tc.gen(stats.NewRand(2), n)
			st, err := New(eps, n)
			if err != nil {
				t.Fatal(err)
			}
			for _, x := range xs {
				st.Push(x)
			}
			sorted := append([]float64(nil), xs...)
			sort.Float64s(sorted)
			span := sorted[len(sorted)-1] - sorted[0]
			for f := 0.0; f <= 1.0001; f += 0.05 {
				v := sorted[0] + f*span
				lo, hi := rankInterval(sorted, v)
				r := st.Rank(v)
				if r < lo-eps || r > hi+eps {
					t.Errorf("Rank(%v) = %v with true CDF [%v, %v]: outside ε=%v",
						v, r, lo, hi, eps)
				}
			}
		})
	}
}

// Property: merging exact shard summaries is order-independent — any merge
// tree over the same shards yields identical entries — and merging
// compressed summaries keeps every order within the shared ε bound.
func TestMergeAssociativity(t *testing.T) {
	rng := stats.NewRand(3)
	shards := make([][]float64, 4)
	gens := streamCases()
	all := []float64{}
	for i := range shards {
		shards[i] = gens[i].gen(rng, 3000)
		all = append(all, shards[i]...)
	}
	sort.Float64s(all)

	exact := func(order []int) *Summary {
		m := &Summary{}
		for _, i := range order {
			m.Merge(FromUnsorted(shards[i]))
		}
		return m
	}
	orders := [][]int{{0, 1, 2, 3}, {3, 2, 1, 0}, {2, 0, 3, 1}}
	base := exact(orders[0])
	for _, ord := range orders[1:] {
		m := exact(ord)
		if m.Size() != base.Size() {
			t.Fatalf("order %v: %d entries vs %d", ord, m.Size(), base.Size())
		}
		for i, e := range m.Entries() {
			if e != base.Entries()[i] {
				t.Fatalf("order %v: entry %d = %+v vs %+v", ord, i, e, base.Entries()[i])
			}
		}
	}

	// Compressed shards, merged in every order: same ε bound for all.
	const b = 400
	epsBound := 1.0/b + 2.0/float64(len(all)) // one compress per shard + tie slack
	for _, ord := range orders {
		m := &Summary{}
		for _, i := range ord {
			s := FromUnsorted(shards[i])
			s.Compress(b)
			m.Merge(s)
		}
		if got := m.ApproxError(); got > epsBound+1e-12 {
			t.Errorf("order %v: merged ApproxError %v > bound %v", ord, got, epsBound)
		}
		for q := 0.05; q < 1; q += 0.1 {
			v := m.Query(q)
			lo, hi := rankInterval(all, v)
			if q < lo-epsBound || q > hi+epsBound {
				t.Errorf("order %v: Query(%.2f) rank [%v, %v] outside bound %v",
					ord, q, lo, hi, epsBound)
			}
		}
	}
}

// Property: ε_merge = max(ε₁, ε₂) — merging never exceeds the worse input's
// error bound.
func TestMergeErrorIsMaxOfInputs(t *testing.T) {
	rng := stats.NewRand(4)
	mk := func(n, b int) *Summary {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64()
		}
		s := FromUnsorted(xs)
		s.Compress(b)
		return s
	}
	a, b := mk(5000, 100), mk(8000, 400)
	ea, eb := a.ApproxError(), b.ApproxError()
	maxEps := math.Max(ea, eb)
	a.Merge(b)
	if got := a.ApproxError(); got > maxEps+1e-12 {
		t.Errorf("merged error %v > max(%v, %v)", got, ea, eb)
	}
}

// Property: ε_compress = ε + 1/b — Compress(b) bounds both the size and the
// added error.
func TestCompressBound(t *testing.T) {
	rng := stats.NewRand(5)
	xs := make([]float64, 10000)
	for i := range xs {
		xs[i] = rng.Float64()
	}
	s := FromUnsorted(xs)
	for _, b := range []int{2000, 500, 100, 20} {
		before := s.ApproxError()
		s.Compress(b)
		if s.Size() > b+1 {
			t.Errorf("Compress(%d) left %d entries", b, s.Size())
		}
		if after := s.ApproxError(); after > before+1.0/float64(b)+1e-12 {
			t.Errorf("Compress(%d): error %v > %v + 1/%d", b, after, before, b)
		}
	}
}

// fractionalSummary builds through FromEntries — the decode half of a
// peer's float-form block, the one way fractional ranks still enter — an
// exact summary of n values drawn by value, each with a fractional weight
// in [0.1, 3.1) and duplicates combined, then compresses it to b.
func fractionalSummary(t *testing.T, rng *rand.Rand, n, b int, value func() float64) *Summary {
	t.Helper()
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = value()
	}
	sort.Float64s(vals)
	var entries []Entry
	for _, v := range vals {
		w := 0.1 + 3*rng.Float64()
		if k := len(entries); k > 0 && entries[k-1].Value == v {
			entries[k-1].Weight += w
			continue
		}
		entries = append(entries, Entry{Value: v, Weight: w})
	}
	cum := 0.0
	for i := range entries {
		entries[i].MinRank, entries[i].MaxRank = cum, cum+entries[i].Weight
		cum = entries[i].MaxRank
	}
	s, err := FromEntries(entries)
	if err != nil {
		t.Fatal(err)
	}
	s.Compress(b)
	return s
}

// Regression: merging summaries with fractional ranks must never produce
// rank bounds FromEntries — and so every wire decoder — refuses. A merge's
// rank sums are exact only for integer ranks; round-off used to leave a
// MaxRank a few ulps below MinRank+Weight or below its predecessor's.
// Per seed: a compressed summary of distinct values, a compressed
// duplicate-heavy one and an exact one, merged, compressed and merged
// again as a stream's carries would.
func TestFractionalWeightsKeepRanksConsistent(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := stats.NewRand(seed)
		distinct := fractionalSummary(t, rng, 3000, 40, rng.NormFloat64)
		dups := fractionalSummary(t, rng, 3000, 40, func() float64 {
			return math.Round(20*rng.NormFloat64()) / 20
		})
		exact := fractionalSummary(t, rng, 500, 1000, rng.NormFloat64)
		merged := distinct.Clone()
		merged.Merge(dups)
		if _, err := FromEntries(merged.Entries()); err != nil {
			t.Errorf("seed %d, first merge: %v", seed, err)
		}
		merged.Compress(40)
		merged.Merge(exact)
		if _, err := FromEntries(merged.Entries()); err != nil {
			t.Errorf("seed %d, second merge: %v", seed, err)
		}
	}
}

// Property: sharded collection — per-shard streams absorbed into a
// coordinator agree with one stream over the concatenated data within the
// summed error budgets.
func TestAbsorbShards(t *testing.T) {
	rng := stats.NewRand(7)
	const shards, perShard, eps = 8, 5000, 0.01
	coord, err := New(eps, shards*perShard)
	if err != nil {
		t.Fatal(err)
	}
	all := make([]float64, 0, shards*perShard)
	for s := 0; s < shards; s++ {
		st, err := New(eps, perShard)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < perShard; i++ {
			v := rng.NormFloat64() + float64(s) // shards see shifted slices
			st.Push(v)
			all = append(all, v)
		}
		coord.AbsorbStream(st)
	}
	if coord.Count() != len(all) {
		t.Fatalf("coordinator count %d, want %d", coord.Count(), len(all))
	}
	sort.Float64s(all)
	for q := 0.05; q < 1; q += 0.05 {
		v := coord.Query(q)
		lo, hi := rankInterval(all, v)
		// Absorb adds one compression per shard on top of the shard ε.
		bound := 3 * eps
		if q < lo-bound || q > hi+bound {
			t.Errorf("Query(%.2f) rank [%v, %v] outside %v", q, lo, hi, bound)
		}
	}
}

func TestEdgeCases(t *testing.T) {
	if _, err := New(1.5, 0); err == nil {
		t.Error("epsilon ≥ 1 must error")
	}
	if _, err := New(-0.1, 0); err == nil {
		t.Error("negative epsilon must error")
	}
	// Below minEpsilon (or NaN) the block buffer of ~2/ε values could not
	// be allocated; it must be refused, not attempted.
	for _, eps := range []float64{math.NaN(), minEpsilon / 2, 1e-300} {
		if _, err := New(eps, 0); err == nil {
			t.Errorf("epsilon %v must error", eps)
		}
	}
	st, err := New(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(st.Query(0.5)) || !math.IsNaN(st.Rank(0)) {
		t.Error("empty stream must report NaN")
	}
	st.Push(42)
	if st.Query(0) != 42 || st.Query(1) != 42 || st.Median() != 42 {
		t.Error("single-value stream must return the value at every quantile")
	}
	if st.Min() != 42 || st.Max() != 42 || st.Count() != 1 {
		t.Error("min/max/count wrong on single value")
	}
	st.Reset()
	if st.Count() != 0 || !math.IsNaN(st.Query(0.5)) {
		t.Error("Reset must empty the stream")
	}
	// NaN is ignored, not absorbed.
	st.Push(math.NaN())
	if st.Count() != 0 {
		t.Error("NaN pushes must be ignored")
	}

	if _, err := NewVector(0, 0.01, 0); err == nil {
		t.Error("zero-dim vector must error")
	}
	vec, err := NewVector(2, 0.01, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := vec.PushRow([]float64{1}); err == nil {
		t.Error("dim mismatch must error")
	}
	if err := vec.PushRow([]float64{1, 10}); err != nil {
		t.Fatal(err)
	}
	if err := vec.PushRow([]float64{3, 30}); err != nil {
		t.Fatal(err)
	}
	med := vec.Medians(nil)
	if len(med) != 2 || med[0] < 1 || med[0] > 3 || med[1] < 10 || med[1] > 30 {
		t.Errorf("vector medians = %v", med)
	}
	if vec.Count() != 2 || vec.Dim() != 2 {
		t.Errorf("vector count/dim = %d/%d", vec.Count(), vec.Dim())
	}
}

// The long-stream regression: pushing far past the size hint must keep the
// error close to ε rather than collapsing.
func TestHintOvershoot(t *testing.T) {
	const eps = 0.02
	st, err := New(eps, 1000) // hint 50× too small
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRand(8)
	xs := make([]float64, 50000)
	for i := range xs {
		xs[i] = rng.Float64()
		st.Push(xs[i])
	}
	sort.Float64s(xs)
	for q := 0.1; q < 1; q += 0.1 {
		v := st.Query(q)
		lo, hi := rankInterval(xs, v)
		if q < lo-2*eps || q > hi+2*eps {
			t.Errorf("overshoot Query(%.1f) rank [%v, %v] drifted past 2ε", q, lo, hi)
		}
	}
}
