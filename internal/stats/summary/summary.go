// Package summary implements ε-approximate, mergeable weighted quantile
// summaries in the Greenwald–Khanna (SIGMOD 2001) compress-merge family, in
// the weighted formulation used by XGBoost (KDD 2016, appendix). A summary
// is a short sorted list of entries {value, weight, minRank, maxRank} whose
// rank intervals bracket the true cumulative weight of the underlying
// stream; quantile and rank queries resolve against the intervals in
// O(log size) without ever re-sorting the data.
//
// The two operations that make the structure a subsystem rather than a
// one-shot sketch:
//
//   - Merge: combines summaries of disjoint streams without losing
//     precision — ε_merged = max(ε₁, ε₂). This is what allows sharded
//     collection (per-worker summaries merged by the coordinator) and the
//     per-game incremental summaries in internal/collect.
//   - Compress(b): prunes a summary to ≈ b+1 entries at the cost of an
//     additional 1/b rank error — ε_compressed = ε + 1/b.
//
// Stream wraps the two in the classic multi-level compress-merge scheme so
// that an unbounded Push stream keeps a configured error budget; Vector
// maintains one Stream per coordinate for streaming coordinate-wise
// medians. See DESIGN.md §5 for the exact-vs-P²-vs-summary trade-offs.
package summary

import (
	"fmt"
	"math"
	"sort"
)

// Entry is one compressed point of a summary. MinRank and MaxRank bound the
// cumulative weight of the stream at Value: the total weight of elements
// strictly below Value lies in [MinRank, MaxRank−Weight], and the weight of
// elements ≤ Value lies in [MinRank+Weight, MaxRank].
type Entry struct {
	Value   float64
	Weight  float64
	MinRank float64
	MaxRank float64
}

// prevMaxRank upper-bounds the cumulative weight strictly below this entry.
func (e Entry) prevMaxRank() float64 { return e.MaxRank - e.Weight }

// nextMinRank lower-bounds the cumulative weight up to and including this
// entry.
func (e Entry) nextMinRank() float64 { return e.MinRank + e.Weight }

func (e Entry) midRank() float64 { return (e.MinRank + e.MaxRank) / 2 }

// Summary is an ε-approximate quantile summary: entries sorted by value
// with consistent rank intervals. The zero value is an empty summary.
type Summary struct {
	entries []Entry
}

// FromSorted builds an exact summary (ε = 0) from values sorted ascending,
// each observed once. Duplicate values are combined into one entry whose
// weight counts them.
func FromSorted(values []float64) *Summary {
	s := &Summary{entries: make([]Entry, 0, len(values))}
	cum := 0.0
	for _, v := range values {
		if n := len(s.entries); n > 0 && s.entries[n-1].Value == v {
			s.entries[n-1].Weight++
			s.entries[n-1].MaxRank++
			cum++
			continue
		}
		s.entries = append(s.entries, Entry{Value: v, Weight: 1, MinRank: cum, MaxRank: cum + 1})
		cum++
	}
	return s
}

// FromUnsorted sorts a copy of values and builds an exact summary.
func FromUnsorted(values []float64) *Summary {
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	return FromSorted(sorted)
}

// FromEntries reconstructs a summary from externally supplied entries — the
// decode half of a serialized summary (internal/wire). It validates the
// structural invariants every operation in this package relies on: values
// strictly increasing and finite-ordered, weights positive, rank bounds
// consistent (MaxRank ≥ MinRank + Weight) and monotone across entries. The
// summary takes entries over: the caller must not use the slice again.
func FromEntries(entries []Entry) (*Summary, error) {
	var prev Entry
	for i, e := range entries {
		if math.IsNaN(e.Value) {
			return nil, fmt.Errorf("summary: entry %d: NaN value", i)
		}
		if !(e.Weight > 0) {
			return nil, fmt.Errorf("summary: entry %d: weight %v", i, e.Weight)
		}
		if e.MinRank < 0 || e.MaxRank < e.MinRank+e.Weight {
			return nil, fmt.Errorf("summary: entry %d: rank interval [%v, %v] inconsistent with weight %v",
				i, e.MinRank, e.MaxRank, e.Weight)
		}
		if i > 0 {
			if e.Value <= prev.Value {
				return nil, fmt.Errorf("summary: entry %d: value %v not above predecessor %v", i, e.Value, prev.Value)
			}
			if e.MinRank < prev.MinRank || e.MaxRank < prev.MaxRank {
				return nil, fmt.Errorf("summary: entry %d: rank bounds regress", i)
			}
		}
		prev = e
	}
	return &Summary{entries: entries}, nil
}

// Clone returns a deep copy, its entries in an array of their exact length.
func (s *Summary) Clone() *Summary {
	return &Summary{entries: cloneEntries(s.entries)}
}

// cloneEntries copies es into a slice whose capacity is its length
// (append would round a large one up to the allocator's next size).
func cloneEntries(es []Entry) []Entry {
	if len(es) == 0 {
		return nil
	}
	return append(make([]Entry, 0, len(es)), es...)
}

// Size returns the number of entries.
func (s *Summary) Size() int { return len(s.entries) }

// Entries exposes the underlying entries (read-only by convention).
func (s *Summary) Entries() []Entry { return s.entries }

// TotalWeight returns the total weight of the summarized stream.
func (s *Summary) TotalWeight() float64 {
	if len(s.entries) == 0 {
		return 0
	}
	return s.entries[len(s.entries)-1].MaxRank
}

// Merge folds other into s, so that s summarizes the union of the two
// disjoint streams. The merged error is max(ε_s, ε_other): merging is
// lossless in the GK sense, which is what makes per-shard summaries
// combinable by a coordinator. Runs in O(|s| + |other|). To fold more
// than two summaries, MergeAll is the same fold in one output allocation.
func (s *Summary) Merge(other *Summary) {
	if other == nil || len(other.entries) == 0 {
		return
	}
	if len(s.entries) == 0 {
		s.entries = append([]Entry(nil), other.entries...)
		return
	}
	s.entries = merge2(make([]Entry, 0, len(s.entries)+len(other.entries)), s.entries, other.entries)
}

// merge2 appends the merge of the non-empty entry lists a and b to dst
// and returns it: Merge's two-way pass, a's entries standing for the
// summary merged into.
func merge2(dst, a, b []Entry) []Entry {
	var lo, hi float64 // the last emitted entry's rank bounds
	emit := func(v, w, minRank, maxRank float64) {
		lo, hi = consistentBounds(minRank, maxRank, w, lo, hi)
		dst = append(dst, Entry{Value: v, Weight: w, MinRank: lo, MaxRank: hi})
	}
	// aLow/bLow lower-bound the cumulative weight consumed so far from each
	// side; the upper bound for an emitted entry comes from the first
	// not-yet-consumed entry on the opposite side (prevMaxRank), or the
	// opposite side's total weight once it is exhausted.
	var aLow, bLow float64
	aTotal, bTotal := a[len(a)-1].MaxRank, b[len(b)-1].MaxRank
	var i, j int
	for i < len(a) && j < len(b) {
		switch {
		case a[i].Value < b[j].Value:
			emit(a[i].Value, a[i].Weight, a[i].MinRank+bLow, a[i].MaxRank+b[j].prevMaxRank())
			aLow = a[i].nextMinRank()
			i++
		case b[j].Value < a[i].Value:
			emit(b[j].Value, b[j].Weight, b[j].MinRank+aLow, b[j].MaxRank+a[i].prevMaxRank())
			bLow = b[j].nextMinRank()
			j++
		default: // equal values collapse into one entry with summed ranks
			emit(a[i].Value, a[i].Weight+b[j].Weight, a[i].MinRank+b[j].MinRank, a[i].MaxRank+b[j].MaxRank)
			aLow = a[i].nextMinRank()
			bLow = b[j].nextMinRank()
			i++
			j++
		}
	}
	for ; i < len(a); i++ {
		emit(a[i].Value, a[i].Weight, a[i].MinRank+bLow, a[i].MaxRank+bTotal)
	}
	for ; j < len(b); j++ {
		emit(b[j].Value, b[j].Weight, b[j].MinRank+aLow, b[j].MaxRank+aTotal)
	}
	return dst
}

// consistentBounds returns an entry's rank bounds, given its weight w and
// its predecessor's bounds (zero for a first entry), raised where float
// round-off broke the invariants FromEntries checks: maxRank ≥ minRank+w,
// and neither bound below its predecessor's. The rank sums of a merge are
// exact in real arithmetic, but a peer's decoded summary can carry
// fractional ranks, and merges of decoded summaries can pass 2^53, where a
// rounded bound can land a few ulps short. maxRank only ever rises, and
// minRank rises at most to its predecessor's — itself a lower bound on
// this entry's rank — so the interval still brackets the true rank.
// Integer ranks up to 2^53 add exactly, so summaries of pushed streams
// are never touched.
func consistentBounds(minRank, maxRank, w, prevMin, prevMax float64) (float64, float64) {
	if minRank < prevMin {
		minRank = prevMin
	}
	if m := minRank + w; maxRank < m {
		maxRank = m
	}
	if maxRank < prevMax {
		maxRank = prevMax
	}
	return minRank, maxRank
}

// Compress prunes the summary to at most b+1 entries by keeping the
// extremes and the entries nearest the b−1 interior rank grid points
// k·W/b. The pruned summary's error grows by at most 1/b:
// ε_compressed = ε + 1/b.
func (s *Summary) Compress(b int) {
	if b < 2 {
		b = 2
	}
	n := len(s.entries)
	if n <= b+1 {
		return
	}
	s.entries = compressTargets(s.entries[:0], s.entries, gridTargets(s.TotalWeight(), b))
}

// gridTargets yields the b−1 interior rank grid points k·W/b ascending —
// the Compress(b) pruning grid.
func gridTargets(w float64, b int) func() (float64, bool) {
	k := 0
	return func() (float64, bool) {
		k++
		if k >= b {
			return 0, false
		}
		return float64(k) * w / float64(b), true
	}
}

// fineGrid returns the indices [first, last] of the tighten×-finer grid
// points j·W/(b·tighten) inside the rank window [lo, hi] (fractions of
// total weight), interior points only; first > last when there are none.
func fineGrid(b int, lo, hi float64, tighten int) (fine float64, first, last int) {
	fine = float64(b) * float64(tighten)
	first = int(math.Ceil(lo * fine))
	if first < 1 {
		first = 1
	}
	last = int(math.Floor(hi * fine))
	if last > int(fine)-1 {
		last = int(fine) - 1
	}
	return fine, first, last
}

// focusGridSize bounds the entries a focused compression keeps: the two
// extremes plus one per grid target, b−1 coarse and the window's fine
// ones — b+1 when the window holds no fine point.
func focusGridSize(b int, lo, hi float64, tighten int) int {
	_, first, last := fineGrid(b, lo, hi, tighten)
	return b + 1 + max(0, last-first+1)
}

// focusGridTargets yields the Compress(b) grid unioned with a tighten×
// finer grid restricted to the rank window [lo, hi] (fractions of total
// weight), ascending — the focused pruning grid: inside the window the
// added error is at most 1/(b·tighten), everywhere else the Compress(b)
// bound holds. Coincident targets may repeat; the selection pass drops
// them.
func focusGridTargets(w float64, b int, lo, hi float64, tighten int) func() (float64, bool) {
	fine, fj, fEnd := fineGrid(b, lo, hi, tighten)
	k := 0
	var pendingC, pendingF float64
	haveC, haveF := false, false
	return func() (float64, bool) {
		if !haveC {
			k++
			if k < b {
				pendingC, haveC = float64(k)*w/float64(b), true
			}
		}
		if !haveF && fj <= fEnd {
			pendingF, haveF = float64(fj)*w/fine, true
			fj++
		}
		switch {
		case haveC && (!haveF || pendingC <= pendingF):
			haveC = false
			return pendingC, true
		case haveF:
			haveF = false
			return pendingF, true
		default:
			return 0, false
		}
	}
}

// compressTargets is the shared one-pass pruning core: for each target rank
// produced by next (ascending) it keeps the entry of src whose rank
// midpoint is nearest, appending survivors to dst, which may be src[:0]
// (every survivor is written at or before the index it is read from).
// Both the targets and the midpoints are nondecreasing, so the read cursor
// never backs up. The first and last entries always survive. Callers
// guarantee len(src) ≥ 2.
func compressTargets(dst, src []Entry, next func() (float64, bool)) []Entry {
	n := len(src)
	dst = append(dst, src[0])
	lastIdx := 0
	i := 1
	for i < n-1 {
		target, ok := next()
		if !ok {
			break
		}
		for i < n-1 && src[i].midRank() < target {
			i++
		}
		if i >= n-1 {
			break
		}
		j := i
		if target-src[j-1].midRank() <= src[j].midRank()-target {
			j--
		}
		if j > lastIdx {
			dst = append(dst, src[j])
			lastIdx = j
		}
	}
	return append(dst, src[n-1])
}

// selectIdx returns the index of the entry whose rank interval midpoint is
// closest to target.
func (s *Summary) selectIdx(target float64) int {
	// Midpoints are nondecreasing: binary search the first ≥ target, then
	// compare with its predecessor.
	i := sort.Search(len(s.entries), func(i int) bool {
		return s.entries[i].midRank() >= target
	})
	if i == len(s.entries) {
		return i - 1
	}
	if i > 0 && target-s.entries[i-1].midRank() <= s.entries[i].midRank()-target {
		return i - 1
	}
	return i
}

// Query returns a value whose rank is within ε·W of q·W — the ε-approximate
// q-th quantile (q clamped to [0,1]). NaN on an empty summary.
func (s *Summary) Query(q float64) float64 {
	if len(s.entries) == 0 {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	return s.entries[s.selectIdx(q*s.TotalWeight())].Value
}

// Rank estimates the fraction of the stream's weight that is ≤ v, the
// empirical CDF at v, within ε. NaN on an empty summary.
func (s *Summary) Rank(v float64) float64 {
	if len(s.entries) == 0 {
		return math.NaN()
	}
	w := s.TotalWeight()
	// Last entry with Value ≤ v.
	i := sort.Search(len(s.entries), func(i int) bool {
		return s.entries[i].Value > v
	}) - 1
	if i < 0 {
		return 0
	}
	if i == len(s.entries)-1 {
		return 1
	}
	lower := s.entries[i].nextMinRank()
	upper := s.entries[i+1].prevMaxRank()
	r := (lower + upper) / 2 / w
	if r < 0 {
		return 0
	}
	if r > 1 {
		return 1
	}
	return r
}

// ApproxError returns the summary's rank-uncertainty bound as a fraction of
// total weight: the largest rank gap a query can fall into. A fresh exact
// summary reports 0; Compress(b) grows it by at most 1/b and Merge by
// nothing beyond max of the inputs.
//
//trimlint:allow deadexport test oracle: the ε bound the merge and compress property tests read
func (s *Summary) ApproxError() float64 {
	if len(s.entries) == 0 {
		return 0
	}
	var maxGap float64
	for i := 1; i < len(s.entries); i++ {
		e := s.entries[i]
		if g := e.MaxRank - e.MinRank - e.Weight; g > maxGap {
			maxGap = g
		}
		if g := e.prevMaxRank() - s.entries[i-1].nextMinRank(); g > maxGap {
			maxGap = g
		}
	}
	return maxGap / s.TotalWeight()
}
