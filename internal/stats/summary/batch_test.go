package summary

import (
	"math"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"testing"

	"repro/internal/stats"
)

// Property: PushBatch and item-wise Push agree exactly on the exact
// accounting (Count/Sum/Min/Max) and are rank-equivalent within the shared
// ε budget on every stream shape — including the adversarial sorted,
// reversed and duplicate-heavy cases.
func TestPushBatchMatchesPushWithinEpsilon(t *testing.T) {
	const (
		n   = 50000
		eps = 0.01
	)
	for _, tc := range streamCases() {
		t.Run(tc.name, func(t *testing.T) {
			xs := tc.gen(stats.NewRand(11), n)
			item, err := New(eps, n)
			if err != nil {
				t.Fatal(err)
			}
			batch, err := New(eps, n)
			if err != nil {
				t.Fatal(err)
			}
			for _, x := range xs {
				item.Push(x)
			}
			batch.PushBatch(xs)

			if item.Count() != batch.Count() || item.Sum() != batch.Sum() ||
				item.Min() != batch.Min() || item.Max() != batch.Max() {
				t.Fatalf("accounting diverged: count %d/%d sum %v/%v min %v/%v max %v/%v",
					item.Count(), batch.Count(), item.Sum(), batch.Sum(),
					item.Min(), batch.Min(), item.Max(), batch.Max())
			}
			sorted := append([]float64(nil), xs...)
			sort.Float64s(sorted)
			for q := 0.0; q <= 1.0001; q += 0.02 {
				v := batch.Query(q)
				lo, hi := rankInterval(sorted, v)
				if q < lo-eps || q > hi+eps {
					t.Errorf("batch Query(%.2f) = %v with true rank [%v, %v]: outside ε=%v",
						q, v, lo, hi, eps)
				}
			}
			if got := batch.Snapshot().ApproxError(); got > eps {
				t.Errorf("batch ApproxError %v > ε=%v", got, eps)
			}
		})
	}
}

// Batches that never reach a direct chunk ride the item-wise buffer path
// and are bit-identical to per-item pushes, including interleaved with
// them — so mixing the two APIs below the flush point is safe.
func TestPushBatchSmallBitIdentical(t *testing.T) {
	rng := stats.NewRand(13)
	a, err := New(0.01, 1000)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(0.01, 1000)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 20; round++ {
		chunk := make([]float64, 37)
		for i := range chunk {
			chunk[i] = rng.Float64()
		}
		for _, v := range chunk {
			a.Push(v)
		}
		b.PushBatch(chunk)
		extra := rng.NormFloat64()
		a.Push(extra)
		b.Push(extra)
	}
	if !reflect.DeepEqual(a.Snapshot().Entries(), b.Snapshot().Entries()) {
		t.Fatal("sub-block batches diverged from item-wise pushes")
	}
	if a.Count() != b.Count() || a.Sum() != b.Sum() {
		t.Fatal("sub-block batch accounting diverged")
	}
}

// PushBatch is deterministic: identical input sequences produce
// bit-identical snapshots, regardless of how the input is sliced into
// calls at chunk boundaries.
func TestPushBatchDeterministic(t *testing.T) {
	xs := streamCases()[0].gen(stats.NewRand(14), 120000)
	run := func(split int) *Summary {
		st, err := New(0.005, len(xs))
		if err != nil {
			t.Fatal(err)
		}
		st.PushBatch(xs[:split])
		st.PushBatch(xs[split:])
		return st.Snapshot()
	}
	base := run(0)
	for _, split := range []int{1, 1000, 60000, len(xs)} {
		if !reflect.DeepEqual(base.Entries(), run(split).Entries()) {
			// Splits land mid-buffer, so chunk boundaries shift; queries
			// must still agree bit-for-bit when the boundaries coincide.
			if split == 0 || split == len(xs) {
				t.Fatalf("split %d: identical chunking diverged", split)
			}
		}
	}
	if !reflect.DeepEqual(base.Entries(), run(len(xs)).Entries()) {
		t.Fatal("identical PushBatch runs diverged")
	}
}

// Parallel sub-shard merge — the worker's per-core schedule — is
// deterministic: per-sub streams filled concurrently and merged in sub
// order produce bit-identical results across repeated runs and across
// GOMAXPROCS settings, because Merge of unit-weight summaries is exact
// integer rank arithmetic and the merge order is pinned.
func TestParallelSubShardMergeDeterministic(t *testing.T) {
	xs := streamCases()[1].gen(stats.NewRand(15), 80000)
	run := func(subs int) []Entry {
		bounds := func(c int) (int, int) {
			return len(xs) * c / subs, len(xs) * (c + 1) / subs
		}
		snaps := make([]*Summary, subs)
		var wg sync.WaitGroup
		for c := 0; c < subs; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				lo, hi := bounds(c)
				st, err := New(0.01, hi-lo)
				if err != nil {
					panic(err)
				}
				st.PushBatch(xs[lo:hi])
				snaps[c] = st.Snapshot()
			}(c)
		}
		wg.Wait()
		merged := &Summary{}
		for _, s := range snaps {
			merged.Merge(s)
		}
		return merged.Entries()
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, subs := range []int{2, 4, 7} {
		base := run(subs)
		for rep := 0; rep < 3; rep++ {
			runtime.GOMAXPROCS(1 + rep)
			if !reflect.DeepEqual(base, run(subs)) {
				t.Fatalf("subs=%d rep=%d: parallel sub-shard merge diverged", subs, rep)
			}
		}
	}
}

// The snapshot-cache regression (ISSUE 8 small fix): interleaved Push and
// Query must re-merge only the partial buffer against the cached level
// merge — one level rebuild per flush, not per query — and the regrouped
// merge must stay bit-identical to the unhinted path for unit weights.
func TestSnapshotLevelCacheInvalidateOnce(t *testing.T) {
	st, err := New(0.02, 2000)
	if err != nil {
		t.Fatal(err)
	}
	control, err := New(0.02, 2000)
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRand(16)
	const n = 12000
	flushes := 0
	for i := 0; i < n; i++ {
		v := rng.Float64()
		st.Push(v)
		control.Push(v)
		if len(st.bufV) == 0 {
			flushes++
		}
		if st.Query(0.5) != control.Snapshot().Query(0.5) {
			t.Fatalf("push %d: interleaved query diverged", i)
		}
	}
	// Every query above forced a snapshot; without the level cache each one
	// re-merged the whole counter. With it, the counter is re-merged at
	// most once per flush (plus the initial build).
	if st.levelBuilds > flushes+1 {
		t.Fatalf("levelBuilds = %d for %d flushes: snapshot re-merges levels per query", st.levelBuilds, flushes)
	}
	if !reflect.DeepEqual(st.Snapshot().Entries(), control.Snapshot().Entries()) {
		t.Fatal("level-cached snapshot diverged from control")
	}
}

// CompressFocused: the focused grid keeps the global 1/b bound and a
// tighten×-tighter bound inside the rank window, with the documented size
// bound.
func TestCompressFocused(t *testing.T) {
	rng := stats.NewRand(17)
	xs := make([]float64, 60000)
	for i := range xs {
		xs[i] = rng.Float64()
	}
	const (
		b       = 200
		tighten = 8
		lo, hi  = 0.85, 0.95
	)
	s := FromUnsorted(xs)
	s.CompressFocused(b, lo, hi, tighten)
	if got, bound := s.ApproxError(), 1.0/b+1e-12; got > bound {
		t.Errorf("global ApproxError %v > 1/b = %v", got, bound)
	}
	if maxSize := b + 1 + int(math.Ceil((hi-lo)*b*tighten)) + 2; s.Size() > maxSize {
		t.Errorf("focused size %d > bound %d", s.Size(), maxSize)
	}
	// Inside the window the rank gaps must be tighten× tighter.
	w := s.TotalWeight()
	fineBound := 1.0/(b*tighten) + 1e-12
	entries := s.Entries()
	for i := 1; i < len(entries); i++ {
		mid := entries[i].midRank() / w
		if mid < lo+1.0/b || mid > hi-1.0/b {
			continue
		}
		if g := (entries[i].prevMaxRank() - entries[i-1].nextMinRank()) / w; g > fineBound {
			t.Errorf("in-window gap %v at rank %.3f > 1/(b·tighten) = %v", g, mid, fineBound)
		}
	}
	// Degenerate parameters fall back to plain Compress.
	s2 := FromUnsorted(xs[:5000])
	s3 := FromUnsorted(xs[:5000])
	s2.CompressFocused(b, 0.5, 0.5, tighten)
	s3.Compress(b)
	if !reflect.DeepEqual(s2.Entries(), s3.Entries()) {
		t.Error("empty window did not fall back to Compress")
	}
}

// A focused stream keeps its full-ε guarantee everywhere and a tighter one
// near the focus window — the adaptive-ε property the trim threshold
// queries rely on.
func TestStreamFocusTightensWindow(t *testing.T) {
	const (
		n       = 200000
		eps     = 0.02
		pct     = 0.9
		width   = 0.05
		tighten = 4
	)
	xs := streamCases()[0].gen(stats.NewRand(18), n)
	st, err := New(eps, n)
	if err != nil {
		t.Fatal(err)
	}
	st.SetFocus(pct, width, tighten)
	st.PushBatch(xs)
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	for q := 0.0; q <= 1.0001; q += 0.02 {
		v := st.Query(q)
		lo, hi := rankInterval(sorted, v)
		if q < lo-eps || q > hi+eps {
			t.Errorf("focused Query(%.2f) rank [%v, %v] outside global ε=%v", q, lo, hi, eps)
		}
		if q >= pct-width/2 && q <= pct+width/2 {
			tight := 2*eps/tighten + 2.0/n
			if q < lo-tight || q > hi+tight {
				t.Errorf("focused Query(%.2f) rank [%v, %v] outside window bound %v", q, lo, hi, tight)
			}
		}
	}
}

// Batch ingestion must leave the stream serializable mid-buffer: the tail
// below a block stays in the push buffer, State/FromState round-trips, and
// the restored stream continues bit-identically.
func TestPushBatchStateRoundTrip(t *testing.T) {
	xs := streamCases()[4].gen(stats.NewRand(19), 70001)
	st, err := New(0.01, len(xs))
	if err != nil {
		t.Fatal(err)
	}
	st.PushBatch(xs)
	if len(st.bufV) >= st.blockSize {
		t.Fatalf("batch left buffer at %d ≥ block size %d", len(st.bufV), st.blockSize)
	}
	restored, err := FromState(st.State())
	if err != nil {
		t.Fatal(err)
	}
	more := streamCases()[0].gen(stats.NewRand(20), 5000)
	st.PushBatch(more)
	restored.PushBatch(more)
	if !reflect.DeepEqual(st.Snapshot().Entries(), restored.Snapshot().Entries()) {
		t.Fatal("restored stream diverged after further batches")
	}
	if st.Count() != restored.Count() || st.Sum() != restored.Sum() {
		t.Fatal("restored accounting diverged")
	}
}

// Vector.PushRows: per-dimension batch ingestion matches row-wise PushRow
// within ε and validates dimensions up front.
func TestVectorPushRows(t *testing.T) {
	rng := stats.NewRand(21)
	const rows, dim, eps = 20000, 3, 0.01
	data := make([][]float64, rows)
	for i := range data {
		row := make([]float64, dim)
		for d := range row {
			row[d] = rng.NormFloat64() * float64(d+1)
		}
		data[i] = row
	}
	byRow, err := NewVector(dim, eps, rows)
	if err != nil {
		t.Fatal(err)
	}
	byBatch, err := NewVector(dim, eps, rows)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range data {
		if err := byRow.PushRow(row); err != nil {
			t.Fatal(err)
		}
	}
	if err := byBatch.PushRows(data); err != nil {
		t.Fatal(err)
	}
	if byRow.Count() != byBatch.Count() {
		t.Fatalf("count %d vs %d", byRow.Count(), byBatch.Count())
	}
	for d := 0; d < dim; d++ {
		for q := 0.1; q < 1; q += 0.2 {
			a := byRow.Coord(d).Query(q)
			b := byBatch.Coord(d).Query(q)
			if ra, rb := byRow.Coord(d).Rank(a), byRow.Coord(d).Rank(b); math.Abs(ra-rb) > 3*eps {
				t.Errorf("dim %d q=%.1f: row-wise %v vs batch %v", d, q, a, b)
			}
		}
	}
	if err := byBatch.PushRows([][]float64{{1, 2}}); err == nil {
		t.Error("short row must error")
	}
}

// A direct chunk with no observable value — all NaN, at or above the radix
// threshold — leaves the stream empty instead of sorting zero keys.
func TestPushBatchAllNaN(t *testing.T) {
	st, err := New(0.01, 4096)
	if err != nil {
		t.Fatal(err)
	}
	xs := make([]float64, 2*batchChunk)
	for i := range xs {
		xs[i] = math.NaN()
	}
	st.PushBatch(xs)
	if st.Count() != 0 || st.Sum() != 0 {
		t.Fatalf("all-NaN batch: count %d sum %v, want an empty stream", st.Count(), st.Sum())
	}
	st.PushBatch([]float64{1, 2, 3})
	if st.Count() != 3 || st.Query(0.5) != 2 {
		t.Fatalf("stream after an all-NaN batch: count %d median %v", st.Count(), st.Query(0.5))
	}
}

// Property: the kept summary a classify builds — a stream sized for the
// whole held round, fed the values at or below the trim threshold with one
// PushBatch in held order — answers every q on a 0.001 grid within ε·n
// ranks of the exact kept values, n being the kept count. The held sizes
// keep fewer values than one block, between one block and one batch
// chunk, and several chunks; every stream shape runs at each. An answer
// an exact summary of the kept values gives too is exempt: Query picks the
// entry whose rank midpoint is nearest, which on heavy ties can miss by
// part of a tie's weight with no compression at all (duplicate-heavy data
// at 400 values misses by 0.0105).
func TestPushBatchKeptWithinEpsilon(t *testing.T) {
	const eps = DefaultEpsilon
	worst := 0.0
	for _, held := range []int{400, 20_000, 200_000} {
		for _, tc := range streamCases() {
			xs := tc.gen(stats.NewRand(int64(held)), held)
			sorted := append([]float64(nil), xs...)
			sort.Float64s(sorted)
			threshold := stats.QuantileSorted(sorted, 0.9)
			var kept []float64
			sum := 0.0
			for _, x := range xs {
				if x <= threshold {
					kept = append(kept, x)
					sum += x
				}
			}
			st, err := New(eps, held)
			if err != nil {
				t.Fatal(err)
			}
			st.PushBatch(kept)
			if st.Count() != len(kept) || st.Sum() != sum {
				t.Fatalf("%d/%s: count %d sum %v, want %d and the running sum %v", held, tc.name, st.Count(), st.Sum(), len(kept), sum)
			}
			exact := FromUnsorted(kept)
			sort.Float64s(kept)
			for i := 0; i <= 1000; i++ {
				q := float64(i) / 1000
				v := st.Query(q)
				if v == exact.Query(q) {
					continue
				}
				lo, hi := rankInterval(kept, v)
				miss := math.Max(lo-q, q-hi)
				worst = math.Max(worst, miss)
				if miss > eps {
					t.Errorf("%d/%s (%d kept, block %d): Query(%.3f) = %v with true rank [%v, %v]: outside ε=%v",
						held, tc.name, len(kept), st.blockSize, q, v, lo, hi, eps)
				}
			}
		}
	}
	t.Logf("worst rank error %.5f against ε = %v", worst, eps)
}
