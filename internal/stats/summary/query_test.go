package summary

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/stats"
)

// queryProbes returns the quantiles the bit-identity checks ask of a
// stream whose merged snapshot is snap: 0, 1, NaN, both sides of [0, 1],
// a 0.001 grid, and for consecutive snapshot entries the q whose target
// q·W lands exactly on the later entry's midpoint (selectIdx's ≥) and
// exactly between the two midpoints (its ≤ tie to the predecessor).
func queryProbes(snap *Summary) []float64 {
	qs := []float64{0, 1, math.NaN(), -0.5, 1.5, math.Inf(1)}
	for i := 0; i <= 1000; i++ {
		qs = append(qs, float64(i)/1000)
	}
	es := snap.Entries()
	w := snap.TotalWeight()
	exactly := func(target float64) {
		q := target / w
		for k := 0; k < 4; k++ {
			switch {
			case q*w == target:
				qs = append(qs, q)
				return
			case q*w < target:
				q = math.Nextafter(q, 2)
			default:
				q = math.Nextafter(q, -1)
			}
		}
	}
	step := max(1, len(es)/300)
	for i := 1; i < len(es); i += step {
		exactly(es[i].midRank())
		exactly((es[i-1].midRank() + es[i].midRank()) / 2)
	}
	return qs
}

// checkQueryBits asserts that Query, TotalWeight and Mean answer what the
// merged snapshot answers, bit for bit, and that a stream that is not
// loose builds no snapshot to do so. It leaves no snapshot cached.
func checkQueryBits(t testing.TB, name string, st *Stream) {
	t.Helper()
	st.cache = nil
	snap := st.Snapshot()
	st.cache = nil
	eq := func(what string, got, want float64) {
		t.Helper()
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: %s = %v (%#x), snapshot %v (%#x)", name, what, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	eq("TotalWeight", st.TotalWeight(), snap.TotalWeight())
	mean := math.NaN()
	if w := snap.TotalWeight(); w != 0 {
		mean = st.Sum() / w
	}
	eq("Mean", st.Mean(), mean)
	for _, q := range queryProbes(snap) {
		eq(fmt.Sprintf("Query(%v)", q), st.Query(q), snap.Query(q))
	}
	if built := st.cache != nil; built != st.loose {
		t.Fatalf("%s: loose %v, snapshot built by the queries %v", name, st.loose, built)
	}
	st.cache = nil
}

// signedZeros draws mostly ±0 with a few neighbours, so runs of equal
// values mix both signs across the buffer and the levels.
func signedZeros(rng *rand.Rand, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		switch rng.Intn(5) {
		case 0:
			xs[i] = math.Copysign(0, -1)
		case 1:
			xs[i] = 0
		case 2:
			xs[i] = -1
		case 3:
			xs[i] = 1
		default:
			xs[i] = rng.NormFloat64()
		}
	}
	return xs
}

// Query, TotalWeight, Mean and Vector.Quantiles read the level counter and
// the buffer in place and answer what the merged snapshot answers, bit for
// bit, on every stream shape (and a ±0 one): item-wise pushes with an empty
// and a non-empty buffer, batches, a focus window, a stream rebuilt by
// FromState, absorbed integer-form summaries — and absorbed float-form
// ones, which make the stream loose and take the snapshot.
func TestQueryMatchesSnapshotBits(t *testing.T) {
	cases := append(streamCases(), streamCase{"signed-zero", signedZeros})
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := stats.NewRand(31)
			xs := tc.gen(rng, 20000)
			st, err := New(0.02, 2000)
			if err != nil {
				t.Fatal(err)
			}
			for i, x := range xs[:9000] {
				st.Push(x)
				if i%1500 == 700 {
					checkQueryBits(t, fmt.Sprintf("push %d, buffer %d", i, len(st.bufV)), st)
				}
			}
			for len(st.bufV) != 0 {
				st.Push(rng.Float64())
			}
			checkQueryBits(t, "empty buffer", st)

			st.SetFocus(0.9, 0.05, 4)
			st.PushBatch(xs[9000:15000])
			checkQueryBits(t, "focused batch", st)
			st.ClearFocus()

			restored, err := FromState(st.State())
			if err != nil {
				t.Fatal(err)
			}
			checkQueryBits(t, "restored", restored)
			nanState := st.State()
			nanState.BufV = []float64{1, math.NaN(), math.Copysign(0, -1)}
			if restored, err = FromState(nanState); err != nil {
				t.Fatal(err)
			}
			if !restored.loose {
				t.Fatal("a restored buffer holding NaN left the stream exact")
			}
			checkQueryBits(t, "restored with NaN", restored)

			for i := 0; i < 6; i++ {
				part := FromUnsorted(tc.gen(rng, 300+200*i))
				st.AbsorbCounted(part, int(part.TotalWeight()), 0)
				checkQueryBits(t, fmt.Sprintf("absorb %d", i), st)
			}
			st.PushBatch(xs[15000:])
			checkQueryBits(t, "batch after absorbs", st)

			frac := fractionalSummary(t, rng, 500, 40, func() float64 { return tc.gen(rng, 1)[0] })
			st.AbsorbCounted(frac, 500, 0)
			if !st.loose {
				t.Fatal("a float-form absorb left the stream exact")
			}
			checkQueryBits(t, "float-form absorb", st)
			st.Reset()
			st.Push(1)
			checkQueryBits(t, "reset", st)
		})
	}

	vec, err := NewVector(3, 0.02, 4000)
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRand(32)
	for i := 0; i < 5000; i++ {
		if err := vec.PushRow([]float64{rng.Float64(), rng.NormFloat64(), float64(rng.Intn(9))}); err != nil {
			t.Fatal(err)
		}
	}
	for _, q := range []float64{0, 0.25, 0.5, 0.999, 1} {
		got := vec.Quantiles(nil, q)
		for d, v := range got {
			st := vec.Coord(d)
			if st.cache != nil {
				t.Fatalf("Quantiles(%v) built coordinate %d's snapshot", q, d)
			}
			want := st.Snapshot().Query(q)
			st.cache = nil
			if math.Float64bits(v) != math.Float64bits(want) {
				t.Fatalf("Quantiles(%v)[%d] = %v, snapshot %v", q, d, v, want)
			}
		}
	}
}

// refMergeCompress is the carry step mergeCompress replaces: Merge a copy
// of a with b, then compress in place to the stream's grid.
func refMergeCompress(st *Stream, a, b []Entry) []Entry {
	s := &Summary{entries: cloneEntries(a)}
	s.Merge(&Summary{entries: b})
	if len(s.entries) <= st.blockSize+1 {
		return s.entries
	}
	next, _ := st.grid(s.TotalWeight())
	return compressTargets(s.entries[:0], s.entries, next)
}

// The fused carry step is the merge-then-compress it replaces, entry for
// entry and bit for bit, on exact and loose pairs, with and without focus,
// at sizes on both sides of blockSize+1 and with duplicates that collapse
// a merge below it; it leaves its output in an array no larger than the
// grid's bound and modifies neither input.
func TestMergeCompressMatchesMergeThenCompress(t *testing.T) {
	rng := stats.NewRand(33)
	const bs = 60
	cases := append(streamCases(), streamCase{"signed-zero", signedZeros})
	for _, tc := range cases {
		for _, focus := range []bool{false, true} {
			for trial := 0; trial < 40; trial++ {
				st := &Stream{blockSize: bs}
				if focus {
					st.SetFocus(rng.Float64(), 0.2*rng.Float64(), 2+rng.Intn(6))
				}
				mk := func() []Entry {
					n := 1 + rng.Intn(3*bs)
					if trial%4 == 3 {
						return fractionalSummary(t, rng, n, bs, func() float64 { return tc.gen(rng, 1)[0] }).entries
					}
					s := FromUnsorted(tc.gen(rng, n))
					if rng.Intn(2) == 0 {
						s.Compress(bs)
					}
					return s.entries
				}
				a, b := mk(), mk()
				st.loose = !mergeExact([][]Entry{a}) || !mergeExact([][]Entry{b})
				a0, b0 := cloneEntries(a), cloneEntries(b)
				want := refMergeCompress(st, a, b)
				got := st.mergeCompress(a, b)
				name := fmt.Sprintf("%s focus=%v trial %d (%d+%d entries)", tc.name, focus, trial, len(a), len(b))
				if !entriesIdentical(got, want) {
					t.Fatalf("%s: fused carry %d entries, merge then compress %d, not bit-identical", name, len(got), len(want))
				}
				if !entriesIdentical(a, a0) || !entriesIdentical(b, b0) {
					t.Fatalf("%s: an input was modified", name)
				}
				if _, size := st.grid(1); cap(got) > size {
					t.Fatalf("%s: capacity %d > grid bound %d", name, cap(got), size)
				}
			}
		}
	}
}

// checkLevelCaps asserts every level of st lies in an array of at most
// size entries.
func checkLevelCaps(t testing.TB, name string, st *Stream, size int) {
	t.Helper()
	for l, lv := range st.levels {
		if lv != nil && cap(lv.entries) > size {
			t.Fatalf("%s: level %d holds %d entries in an array of %d > %d", name, l, len(lv.entries), cap(lv.entries), size)
		}
	}
}

// Every level stays in an array of at most blockSize+1 entries (the
// focused grid's bound under SetFocus) after item-wise flushes, PushBatch
// chunks and absorbs of summaries larger and smaller than a block.
func TestLevelsExactSize(t *testing.T) {
	rng := stats.NewRand(34)
	for _, focus := range []bool{false, true} {
		st, err := New(DefaultEpsilon, 200_000)
		if err != nil {
			t.Fatal(err)
		}
		size := st.blockSize + 1
		if focus {
			st.SetFocus(0.9, 0.05, 4)
			_, size = st.grid(1)
		}
		name := fmt.Sprintf("focus=%v", focus)
		for i := 0; i < 5*st.blockSize; i++ {
			st.Push(rng.NormFloat64())
		}
		checkLevelCaps(t, name+" pushes", st, size)
		xs := make([]float64, 3*batchChunk)
		for i := range xs {
			xs[i] = rng.NormFloat64()
		}
		for c := 0; c < 4; c++ {
			st.PushBatch(xs)
			checkLevelCaps(t, fmt.Sprintf("%s batch %d", name, c), st, size)
		}
		for i := 0; i < 40; i++ {
			n := 100 + rng.Intn(3*st.blockSize)
			st.AbsorbCounted(FromUnsorted(streamCases()[i%6].gen(rng, n)), n, 0)
			checkLevelCaps(t, fmt.Sprintf("%s absorb %d", name, i), st, size)
		}
		if occupied := len(st.levels); occupied < 4 {
			t.Fatalf("%s: %d levels, the counter barely carried", name, occupied)
		}
	}
}

// coordinatorVector builds the row game's coordinator vector at the
// benchmark's rows-tree shape: dim 18, ε 0.005, hint 444,000 (blockSize
// 1,801), 4,000 seed rows pushed — two flushes and a 398-value buffer —
// then 110 rounds × 16 leaves of absorbed exact deltas of 285 rows.
func coordinatorVector(tb testing.TB) *Vector {
	tb.Helper()
	const dim, deltas, rows = 18, 1760, 285
	vec, err := NewVector(dim, 0.005, 444_000)
	if err != nil {
		tb.Fatal(err)
	}
	rng := stats.NewRand(35)
	row := make([]float64, dim)
	for i := 0; i < 4000; i++ {
		for d := range row {
			row[d] = rng.NormFloat64()
		}
		if err := vec.PushRow(row); err != nil {
			tb.Fatal(err)
		}
	}
	xs := make([]float64, rows)
	for i := 0; i < deltas; i++ {
		for d := 0; d < dim; d++ {
			sum := 0.0
			for j := range xs {
				xs[j] = rng.NormFloat64() + float64(d)
				sum += xs[j]
			}
			vec.Coord(d).AbsorbCounted(FromUnsorted(xs), rows, sum)
		}
	}
	return vec
}

// The coordinator's robust center — Medians of the absorbed vector — is
// read from the levels: after it no coordinate holds a snapshot, and with
// a reused output buffer its only allocations are each coordinate's push
// buffer summary: a sorted copy, its entries and their Summary. Reading the
// levels alone allocates nothing.
func TestCoordinatorMediansBuildNoSnapshot(t *testing.T) {
	vec := coordinatorVector(t)
	st := vec.Coord(0)
	occupied, entries := 0, 0
	for _, lv := range st.levels {
		if lv != nil {
			occupied++
			entries += lv.Size()
		}
	}
	t.Logf("blockSize %d, buffer %d, %d occupied levels of %d entries", st.blockSize, len(st.bufV), occupied, entries)
	if st.blockSize != 1801 || len(st.bufV) == 0 || occupied < 5 {
		t.Fatalf("blockSize %d, buffer %d, %d occupied levels: not the coordinator's shape", st.blockSize, len(st.bufV), occupied)
	}
	buf := vec.Medians(nil)
	for d := 0; d < vec.Dim(); d++ {
		if vec.Coord(d).cache != nil {
			t.Fatalf("Medians built coordinate %d's snapshot", d)
		}
		checkQueryBits(t, fmt.Sprintf("coordinate %d", d), vec.Coord(d))
	}
	if allocs := testing.AllocsPerRun(20, func() { vec.Medians(buf) }); allocs > 3*float64(vec.Dim()) {
		t.Fatalf("Medians allocates %v times per call, more than 3 per coordinate", allocs)
	}
	states := vec.States()
	for _, s := range states {
		s.BufV = nil
	}
	levelsOnly, err := VectorFromState(states)
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(20, func() { levelsOnly.Medians(buf) }); allocs > 0 {
		t.Fatalf("Medians over the levels alone allocates %v times per call", allocs)
	}
}

// BenchmarkVectorMedians times the coordinator's per-round center read on
// the rows-tree-shaped vector (coordinatorVector).
func BenchmarkVectorMedians(b *testing.B) {
	vec := coordinatorVector(b)
	buf := vec.Medians(nil)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		vec.Medians(buf)
	}
}

// FuzzStreamQuery runs op sequences — Push, PushBatch, AbsorbCounted of
// integer-form and float-form summaries, SetFocus/ClearFocus, Reset and a
// State/FromState round trip — on a small-block stream, and after each op
// holds Query, TotalWeight and Mean to the merged snapshot's answers bit
// for bit, and every level to the grid bound of the focus it was built
// under.
func FuzzStreamQuery(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 1, 200, 3, 7, 2, 90, 4, 9, 3, 2, 1, 255, 5, 7, 0, 0, 6})
	f.Add([]byte{1, 255, 1, 255, 2, 40, 2, 250, 7, 1, 17, 4, 200, 100, 3, 1, 255})
	f.Add([]byte{4, 230, 20, 6, 1, 255, 1, 255, 1, 255, 2, 255, 3, 60, 0, 128, 0, 129})
	f.Fuzz(func(t *testing.T, ops []byte) {
		st, err := New(0.05, 2000)
		if err != nil {
			t.Fatal(err)
		}
		size := st.blockSize + 1 // the largest grid any level was built under
		arg := func(i int) byte {
			if i < len(ops) {
				return ops[i]
			}
			return 0
		}
		value := func(b byte) float64 {
			switch b {
			case 0:
				return math.Copysign(0, -1)
			case 1:
				return math.NaN()
			case 2:
				return math.Inf(1)
			}
			return float64(int8(b)) / 4
		}
		for i := 0; i < len(ops); i += 2 {
			op, p := ops[i]%8, arg(i+1)
			rng := rand.New(rand.NewSource(int64(i)<<8 | int64(p)))
			draw := func(n int) []float64 {
				xs := make([]float64, n)
				for j := range xs {
					xs[j] = value(byte(rng.Intn(256)))
				}
				return xs
			}
			switch op {
			case 0:
				st.Push(value(p))
			case 1:
				st.PushBatch(draw(int(p) * 3))
			case 2:
				if xs := draw(1 + int(p)*2); len(xs) > 0 {
					var kept []float64
					for _, x := range xs {
						if !math.IsNaN(x) {
							kept = append(kept, x)
						}
					}
					if len(kept) > 0 {
						s := FromUnsorted(kept)
						if p%3 == 0 {
							s.Compress(4 + int(p)%50)
						}
						st.AbsorbCounted(s, len(kept), 0)
					}
				}
			case 3:
				st.AbsorbCounted(fractionalSummary(t, rng, 1+int(p), 8+int(p)%90, rng.NormFloat64), 1+int(p), 0)
			case 4:
				st.SetFocus(float64(p)/255, float64(arg(i+2))/1024, 1+int(p)%8)
				_, g := st.grid(1)
				size = max(size, g)
			case 5:
				st.ClearFocus()
			case 6:
				st.Reset()
				_, size = st.grid(1)
			case 7:
				restored, err := FromState(st.State())
				if err != nil {
					t.Fatal(err)
				}
				st = restored
			}
			checkQueryBits(t, fmt.Sprintf("op %d (%d)", i/2, op), st)
			checkLevelCaps(t, fmt.Sprintf("op %d (%d)", i/2, op), st, size)
		}
	})
}
