package summary

import "math"

// foldMaxParts is the most parts MergeAll folds with Merge's two-way pass.
// The fold copies O(k²·m) entries for k parts of m entries, the k-way
// pass takes O(k·m·log k) heap steps. BenchmarkMergeAll (parts of about
// 1,400 entries, 2 vCPUs) puts the fold 1.7× ahead at k = 2, even at 4
// once the k-way pass has checked its precondition, and behind from 8.
const foldMaxParts = 4

// MergeAll returns the merge of parts in order — entry for entry the
// summary the left fold
//
//	acc := &Summary{}
//	for _, p := range parts {
//		acc.Merge(p)
//	}
//
// leaves — in one output allocation, without modifying any part. Nil and
// empty parts are skipped. Up to foldMaxParts parts it runs that fold,
// ping-ponging between two buffers; past it, when the ranks are exact
// integers and the entries nest as a pushed summary's do (mergeExact), it
// runs one k-way pass whose running sums land on the fold's bits. Other
// parts take the fold at any k.
func MergeAll(parts []*Summary) *Summary {
	live := make([][]Entry, 0, len(parts))
	n := 0
	for _, p := range parts {
		if p != nil && len(p.entries) > 0 {
			live = append(live, p.entries)
			n += len(p.entries)
		}
	}
	switch {
	case len(live) == 0:
		return &Summary{}
	case len(live) == 1:
		return &Summary{entries: append([]Entry(nil), live[0]...)}
	case len(live) > foldMaxParts && mergeExact(live):
		return &Summary{entries: mergeKWay(live, n)}
	}
	return &Summary{entries: mergeFold(live, n)}
}

// mergeFold is the left fold of merge2 over k ≥ 2 entry lists holding n
// entries in all. The stages alternate between two buffers, the last one
// writing the output, so a fold of any length allocates at most twice.
func mergeFold(parts [][]Entry, n int) []Entry {
	out := make([]Entry, 0, n)
	var spare []Entry
	if len(parts) > 2 {
		spare = make([]Entry, 0, n)
	}
	acc := parts[0]
	for s := 1; s < len(parts); s++ {
		dst := out
		if (len(parts)-1-s)%2 == 1 {
			dst = spare
		}
		acc = merge2(dst[:0], acc, parts[s])
	}
	return acc
}

// exactRank reports whether x is an integer in [0, 2^53] and not −0: any
// sum of such ranks up to 2^53 is exact in float64, in any order.
func exactRank(x float64) bool {
	return x >= 0 && x <= 1<<53 && x == math.Trunc(x) && !math.Signbit(x)
}

// mergeExact reports whether the k-way pass reproduces the fold's bits
// over parts: every value ordered and not NaN; every weight and rank an
// exact integer (exactRank), and the parts' total weights summing to at
// most 2^53; every entry's interval holding its weight; and consecutive
// entries nested as a summary built by pushes nests them — an entry's
// MinRank at least its predecessor's MinRank+Weight, and its
// MaxRank−Weight at least its predecessor's MaxRank. Under these the
// fold's rank sums are exact in any grouping, and consistentBounds never
// moves a bound: each merged bound is a sum of per-part bounds that are
// each monotone and bracket their own weight. Every summary built by
// FromSorted, Merge, MergeAll, Compress or the integer wire form passes.
func mergeExact(parts [][]Entry) bool {
	total := 0.0
	for _, es := range parts {
		for i, e := range es {
			if !(e.Weight > 0) || !exactRank(e.Weight) || !exactRank(e.MinRank) || !exactRank(e.MaxRank) ||
				e.MaxRank < e.MinRank+e.Weight || math.IsNaN(e.Value) {
				return false
			}
			if i > 0 {
				p := es[i-1]
				if !(e.Value > p.Value) || e.MinRank < p.MinRank+p.Weight || e.MaxRank-e.Weight < p.MaxRank {
					return false
				}
			}
		}
		if total += es[len(es)-1].MaxRank; total > 1<<53 {
			return false
		}
	}
	return true
}

// mergeCursor is one part's read position in the k-way pass: head is the
// value of its next unconsumed entry; lo is the MinRank+Weight of its last
// consumed entry (0 before the first) and hi the MaxRank−Weight of its
// next one (its total weight once exhausted) — the part's own bounds on
// its weight below any value between the two.
type mergeCursor struct {
	es     []Entry
	pos    int
	head   float64
	lo, hi float64
}

// mergeKWay merges k parts holding n entries in all in one pass: a heap
// orders the parts by head value (ties by part index), and every output
// entry's bounds are running sums over the parts — for a part holding the
// value, its own entry's bounds; for any other, its lo and hi. These are
// the sums the fold accumulates stage by stage; under mergeExact they are
// exact, so the order of addition is immaterial and the bits agree. Equal
// values collapse into one entry that keeps the lowest-index part's value
// (the fold keeps the accumulator's), which matters only for ±0.
func mergeKWay(parts [][]Entry, n int) []Entry {
	cur := make([]mergeCursor, len(parts))
	h := make([]int, len(parts))
	var sumLo, sumHi float64
	for i, es := range parts {
		cur[i] = mergeCursor{es: es, head: es[0].Value, hi: es[0].prevMaxRank()}
		sumHi += cur[i].hi
		h[i] = i
	}
	less := func(a, b int) bool {
		return cur[a].head < cur[b].head || (cur[a].head == cur[b].head && a < b)
	}
	down := func(i int) {
		for {
			c := 2*i + 1
			if c >= len(h) {
				return
			}
			if c+1 < len(h) && less(h[c+1], h[c]) {
				c++
			}
			if !less(h[c], h[i]) {
				return
			}
			h[i], h[c] = h[c], h[i]
			i = c
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		down(i)
	}
	out := make([]Entry, 0, n)
	for len(h) > 0 {
		v := cur[h[0]].head
		e := Entry{Value: v, MinRank: sumLo, MaxRank: sumHi}
		for len(h) > 0 && cur[h[0]].head == v {
			c := &cur[h[0]]
			x := c.es[c.pos]
			e.Weight += x.Weight
			e.MinRank += x.MinRank - c.lo
			e.MaxRank += x.Weight
			sumLo += x.nextMinRank() - c.lo
			c.lo = x.nextMinRank()
			c.pos++
			hi := x.MaxRank
			if c.pos < len(c.es) {
				c.head = c.es[c.pos].Value
				hi = c.es[c.pos].prevMaxRank()
			} else {
				h[0] = h[len(h)-1]
				h = h[:len(h)-1]
			}
			sumHi += hi - c.hi
			c.hi = hi
			down(0)
		}
		out = append(out, e)
	}
	return out
}
