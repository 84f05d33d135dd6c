package summary

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// entriesEqual reports bit-exact equality of two summaries' entry lists —
// the equality the aggregator tier (internal/agg) depends on.
func entriesEqual(a, b *Summary) bool {
	ae, be := a.Entries(), b.Entries()
	if len(ae) != len(be) {
		return false
	}
	for i := range ae {
		if ae[i] != be[i] {
			return false
		}
	}
	return true
}

// The aggregator tier regroups the coordinator's flat left-fold of worker
// summaries into an arbitrary merge tree, and the record-for-record
// invariants of DESIGN.md §13 rest on that regrouping being bit-exact: for
// unit-weight streams every rank bound is an integer-valued float far below
// 2^53, Merge only ever adds rank bounds of disjoint streams, and float64
// addition of such integers is exact in any grouping. This test locks the
// property — merging k per-shard summaries left-to-right, right-to-left,
// pairwise bottom-up and in fan-in-f groups must produce identical entries
// — and holds MergeAll to the left fold bit for bit (checkMergeAllShape).
func TestMergeAssociative(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for _, tc := range streamCases() {
		t.Run(tc.name, func(t *testing.T) {
			const shards = 16
			parts := make([]*Summary, shards)
			for i := range parts {
				parts[i] = FromUnsorted(tc.gen(rng, 200+rng.Intn(100)))
			}
			clone := func() []*Summary {
				out := make([]*Summary, len(parts))
				for i, p := range parts {
					out[i] = p.Clone()
				}
				return out
			}

			// Reference: the coordinator's flat left fold.
			flat := clone()
			ref := flat[0]
			for _, p := range flat[1:] {
				ref.Merge(p)
			}

			// Right-to-left fold.
			rtl := clone()
			acc := rtl[len(rtl)-1]
			for i := len(rtl) - 2; i >= 0; i-- {
				rtl[i].Merge(acc)
				acc = rtl[i]
			}
			if !entriesEqual(ref, acc) {
				t.Error("right-to-left fold diverged from the flat left fold")
			}

			// Fan-in-f trees: merge consecutive groups of f, level by level —
			// exactly what a height-h aggregator tier does.
			for _, fanin := range []int{2, 3, 4, 8} {
				cur := clone()
				for len(cur) > 1 {
					var next []*Summary
					for lo := 0; lo < len(cur); lo += fanin {
						hi := lo + fanin
						if hi > len(cur) {
							hi = len(cur)
						}
						g := cur[lo]
						for _, p := range cur[lo+1 : hi] {
							g.Merge(p)
						}
						next = append(next, g)
					}
					cur = next
				}
				if !entriesEqual(ref, cur[0]) {
					t.Errorf("fan-in-%d tree merge diverged from the flat left fold", fanin)
				}
			}

			// MergeAll is the same left fold in one pass.
			for _, k := range []int{1, 2, 3, 16, 64} {
				t.Run(fmt.Sprintf("MergeAll/k=%d", k), func(t *testing.T) { checkMergeAllShape(t, rng, tc, k) })
			}
		})
	}
	checkMergeAll(t, nil)
}

// entriesIdentical reports bit-for-bit equality of two entry lists — the
// property MergeAll promises against the left fold (== would let −0 pass
// for +0).
func entriesIdentical(a, b []Entry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if math.Float64bits(x.Value) != math.Float64bits(y.Value) ||
			math.Float64bits(x.Weight) != math.Float64bits(y.Weight) ||
			math.Float64bits(x.MinRank) != math.Float64bits(y.MinRank) ||
			math.Float64bits(x.MaxRank) != math.Float64bits(y.MaxRank) {
			return false
		}
	}
	return true
}

// leftFold is MergeAll's reference: Merge applied left to right.
func leftFold(parts []*Summary) *Summary {
	acc := &Summary{}
	for _, p := range parts {
		acc.Merge(p)
	}
	return acc
}

// mergeAllParts builds k parts of one stream shape: exact summaries, and
// compressed stream snapshots whose rank intervals carry slack. Every
// shape repeats values across parts — sawtooth and duplicate-heavy ones
// across all of them.
func mergeAllParts(t *testing.T, rng *rand.Rand, tc streamCase, k int) []*Summary {
	t.Helper()
	parts := make([]*Summary, k)
	for i := range parts {
		xs := tc.gen(rng, 200+rng.Intn(300))
		if i%2 == 0 {
			parts[i] = FromUnsorted(xs)
			continue
		}
		st, err := New(0.05, len(xs))
		if err != nil {
			t.Fatal(err)
		}
		st.PushBatch(xs)
		parts[i] = st.Snapshot()
	}
	return parts
}

// checkMergeAll asserts MergeAll(parts) is the left fold bit for bit and
// leaves every part as it found it.
func checkMergeAll(t *testing.T, parts []*Summary) {
	t.Helper()
	before := make([][]Entry, len(parts))
	for i, p := range parts {
		if p != nil {
			before[i] = append([]Entry(nil), p.entries...)
		}
	}
	want := leftFold(parts)
	got := MergeAll(parts)
	if !entriesIdentical(got.Entries(), want.Entries()) {
		t.Fatalf("MergeAll of %d parts: %d entries, left fold %d, not bit-identical", len(parts), got.Size(), want.Size())
	}
	for i, p := range parts {
		if p != nil && !entriesIdentical(p.entries, before[i]) {
			t.Fatalf("MergeAll modified part %d", i)
		}
	}
}

// checkMergeAllShape asserts MergeAll is the left fold of Merge, entry for
// entry, over k parts of one stream shape: integer-ranked parts (the
// k-way pass past foldMaxParts, and run directly at any k), the same
// parts among nil and empty ones, float-form parts with fractional ranks
// (which take the fold), and integer parts with one fractional part mixed
// in.
func checkMergeAllShape(t *testing.T, rng *rand.Rand, tc streamCase, k int) {
	parts := mergeAllParts(t, rng, tc, k)
	checkMergeAll(t, parts)
	live := make([][]Entry, len(parts))
	n := 0
	for i, p := range parts {
		live[i] = p.entries
		n += p.Size()
	}
	if !mergeExact(live) {
		t.Fatal("integer-ranked parts fail mergeExact: the k-way pass would never run")
	}
	if k > 1 && !entriesIdentical(mergeKWay(live, n), leftFold(parts).Entries()) {
		t.Fatal("the k-way pass diverged from the left fold")
	}

	withGaps := append([]*Summary{nil, {}}, parts...)
	withGaps = append(withGaps, &Summary{}, nil)
	checkMergeAll(t, withGaps)

	frac := make([]*Summary, k)
	for i := range frac {
		frac[i] = fractionalSummary(t, rng, 300, 40, func() float64 { return tc.gen(rng, 1)[0] })
	}
	checkMergeAll(t, frac)
	mixed := append([]*Summary(nil), parts...)
	mixed[len(mixed)/2] = frac[0]
	checkMergeAll(t, mixed)
}

// The k-way pass reproduces the fold's ±0 choice: a value held by several
// parts keeps the earliest part's sign.
func TestMergeAllSignedZero(t *testing.T) {
	negZero := math.Copysign(0, -1)
	parts := make([]*Summary, 2*foldMaxParts)
	for i := range parts {
		z := 0.0
		if i%3 == 1 {
			z = negZero
		}
		parts[i] = FromSorted([]float64{-1, z, z, float64(i)})
	}
	checkMergeAll(t, parts)
	parts[0], parts[1] = parts[1], parts[0]
	checkMergeAll(t, parts)
}

// Parts whose integer ranks FromEntries accepts but that do not nest —
// every entry's interval spanning the whole part, as a peer may send —
// make the fold raise bounds (consistentBounds) where the k-way pass
// would not: mergeExact routes them to the fold, and MergeAll still
// equals it.
func TestMergeAllLooseRanks(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	parts := make([]*Summary, 4*foldMaxParts)
	for i := range parts {
		n := 5 + rng.Intn(20)
		entries := make([]Entry, n)
		v := 0.0
		for j := range entries {
			v += float64(1 + rng.Intn(3))
			entries[j] = Entry{Value: v, Weight: float64(1 + rng.Intn(3)), MaxRank: 3 * float64(n)}
		}
		s, err := FromEntries(entries)
		if err != nil {
			t.Fatal(err)
		}
		parts[i] = s
	}
	live := make([][]Entry, len(parts))
	for i, p := range parts {
		live[i] = p.entries
	}
	if mergeExact(live) {
		t.Fatal("parts whose entries do not nest pass mergeExact")
	}
	checkMergeAll(t, parts)
}

// BenchmarkMergeAll times MergeAll against the left fold at the part
// counts foldMaxParts separates: the coordinator's fold of k worker
// reports of m entries each.
func BenchmarkMergeAll(b *testing.B) {
	const m = 1500
	rng := rand.New(rand.NewSource(5))
	for _, k := range []int{2, 3, 4, 8, 16, 32, 64} {
		parts := make([]*Summary, k)
		for i := range parts {
			xs := make([]float64, 30*m)
			for j := range xs {
				xs[j] = rng.NormFloat64()
			}
			st, err := New(0, len(xs))
			if err != nil {
				b.Fatal(err)
			}
			st.PushBatch(xs)
			parts[i] = st.Snapshot()
		}
		b.Run(fmt.Sprintf("fold/k=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				leftFold(parts)
			}
		})
		b.Run(fmt.Sprintf("MergeAll/k=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				MergeAll(parts)
			}
		})
		live := make([][]Entry, k)
		n := 0
		for i, p := range parts {
			live[i] = p.entries
			n += p.Size()
		}
		b.Run(fmt.Sprintf("kway/k=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				mergeKWay(live, n)
			}
		})
	}
}
