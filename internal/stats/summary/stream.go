package summary

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// DefaultEpsilon is the rank-error budget used when a caller passes 0.
const DefaultEpsilon = 0.005

// minEpsilon is the smallest rank-error budget New accepts. A stream
// buffers blocks of about 2/ε values, so 10⁻⁶ already means 16 MB blocks;
// a smaller budget sizes buffers no process can hold.
const minEpsilon = 1e-6

// defaultHint is the stream length assumed when a caller passes no size
// hint. Exceeding the hint degrades the guarantee gracefully (one extra
// 1/blockSize of error per extra doubling) rather than failing.
const defaultHint = 1 << 21

// Stream is an unbounded ε-approximate quantile sketch: values are pushed
// one at a time or in batches, each counting once, buffered in blocks, and
// folded into a binary counter of summaries — level l holds a summary of
// 2^l blocks that has been compressed at most l+1 times, so the total rank
// error stays ≤ maxLevels/blockSize ≤ ε while memory stays
// O(maxLevels·blockSize) = O(log(εn)/ε) regardless of stream length. Each
// level is held in an array of at most blockSize+1 entries (the focused
// grid's bound under SetFocus).
//
// Queries read the level counter and the partial buffer in place: the
// answer is the merged snapshot's, bit for bit, found by binary searches
// over the levels instead of by building the merge (queryParts). Only a
// stream that absorbed a summary whose ranks do not add exactly (loose)
// answers from a merged snapshot, which Snapshot caches until the next
// Push or Absorb.
type Stream struct {
	eps       float64
	blockSize int

	bufV   []float64  // raw pushes since the last flush
	levels []*Summary // levels[l] == nil when the slot is empty

	count    int     // observations pushed or absorbed
	sum      float64 // Σ value of everything pushed/absorbed
	min, max float64

	cache *Summary // the merged snapshot Snapshot built; invalidated by Push/Absorb

	// loose is set once a part of the snapshot may fail mergeExact — an
	// absorbed or restored summary fails it, a restored buffer holds NaN,
	// or a carry passed 2^53 total weight — and cleared by Reset. A loose
	// stream answers queries from a merged snapshot and carries by a merge
	// then a compression.
	loose bool

	// focus*: the adaptive-ε compression window (SetFocus). When
	// focusTighten > 1, compressions keep tighten× denser rank coverage
	// inside [focusLo, focusHi] — quantile queries near the window resolve
	// with ≈ ε/tighten error while memory grows by at most the extra grid
	// points. Focus is dynamic tuning, not serialized state: State()/
	// FromState round-trips ignore it.
	focusLo, focusHi float64
	focusTighten     int
}

// ResolveEpsilon returns the rank-error budget New builds a stream with for
// eps: DefaultEpsilon when 0, and an error outside [10⁻⁶, 1).
func ResolveEpsilon(eps float64) (float64, error) {
	if eps == 0 {
		return DefaultEpsilon, nil
	}
	if !(eps >= minEpsilon && eps < 1) {
		return 0, fmt.Errorf("summary: epsilon %v outside [%g, 1)", eps, minEpsilon)
	}
	return eps, nil
}

// New returns a Stream with rank-error budget eps (DefaultEpsilon when 0)
// sized for about hint elements (defaultHint when ≤ 0).
func New(eps float64, hint int) (*Stream, error) {
	eps, err := ResolveEpsilon(eps)
	if err != nil {
		return nil, err
	}
	if hint <= 0 {
		hint = defaultHint
	}
	// Jointly solve for the level count and block size: a summary at level
	// l has been compressed at most l times (one per carry), so
	// blockSize ≥ (maxLevels+1)/eps keeps the total error strictly below
	// eps with one level of headroom for hint overshoot.
	blockSize := int(math.Ceil(2 / eps))
	for maxLevels := 1; maxLevels <= maxSizingLevels && (1<<uint(maxLevels))*blockSize < hint; maxLevels++ {
		blockSize = int(math.Ceil(float64(maxLevels+2)/eps)) + 1
	}
	return &Stream{
		eps:       eps,
		blockSize: blockSize,
		bufV:      make([]float64, 0, blockSize),
		min:       math.Inf(1),
		max:       math.Inf(-1),
	}, nil
}

// maxSizingLevels caps New's sizing loop. A block holds at least 3 values
// (ε < 1), so 2^61 blocks cover any int hint, and hints up to 2^62 end
// the loop well below the cap. Near the int limit the loop's product
// overflows, and only the cap ends it.
const maxSizingLevels = 61

// blockSizeRange returns the block sizes New resolves eps to over every
// hint: ⌈2/ε⌉ when two blocks cover the hint, up to the size the loop
// sets at maxSizingLevels.
func blockSizeRange(eps float64) (lo, hi int) {
	return int(math.Ceil(2 / eps)), int(math.Ceil(float64(maxSizingLevels+2)/eps)) + 1
}

// Epsilon returns the configured rank-error budget.
func (st *Stream) Epsilon() float64 { return st.eps }

// SetFocus narrows the compression budget around the rank window
// [pct−width, pct+width] (clamped to [0,1]): every subsequent compression
// keeps tighten× denser rank coverage inside the window, so queries near
// pct — the collection game's trim threshold — resolve with ≈ ε/tighten
// error. tighten ≤ 1 clears the focus. Focus only ever adds grid points,
// so the global ε bound is unchanged.
func (st *Stream) SetFocus(pct, width float64, tighten int) {
	if tighten <= 1 {
		st.ClearFocus()
		return
	}
	lo, hi := pct-width, pct+width
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	st.focusLo, st.focusHi, st.focusTighten = lo, hi, tighten
}

// ClearFocus removes the adaptive-ε window set by SetFocus.
func (st *Stream) ClearFocus() {
	st.focusLo, st.focusHi, st.focusTighten = 0, 0, 0
}

// grid returns the stream's compression grid over total weight w — the
// plain blockSize grid, or the focused grid when SetFocus is active — and
// the most entries a compression to it keeps.
func (st *Stream) grid(w float64) (next func() (float64, bool), size int) {
	if st.focusTighten > 1 && st.focusHi > st.focusLo {
		return focusGridTargets(w, st.blockSize, st.focusLo, st.focusHi, st.focusTighten),
			focusGridSize(st.blockSize, st.focusLo, st.focusHi, st.focusTighten)
	}
	return gridTargets(w, st.blockSize), st.blockSize + 1
}

// compressCopy returns src compressed to the stream's grid in a new array
// no longer than the grid's bound, or copied when it holds at most
// blockSize+1 entries and needs no compression. src is not modified.
func (st *Stream) compressCopy(src []Entry) []Entry {
	if len(src) <= st.blockSize+1 {
		return cloneEntries(src)
	}
	next, size := st.grid(src[len(src)-1].MaxRank)
	return compressTargets(make([]Entry, 0, min(size, len(src))), src, next)
}

// Push absorbs one observation; NaN is skipped.
func (st *Stream) Push(v float64) {
	if math.IsNaN(v) {
		return
	}
	st.cache = nil
	st.push1(v)
}

// push1 is Push after the NaN check and cache invalidation — shared with
// the batch path, which invalidates once per call instead.
func (st *Stream) push1(v float64) {
	st.count++
	st.sum += v
	if v < st.min {
		st.min = v
	}
	if v > st.max {
		st.max = v
	}
	st.bufV = append(st.bufV, v)
	if len(st.bufV) >= st.blockSize {
		st.flush()
	}
}

// flush converts the buffer into an exact block summary and carries it
// through the level counter, compressing once per occupied level passed.
func (st *Stream) flush() {
	if len(st.bufV) == 0 {
		return
	}
	sort.Float64s(st.bufV)
	s := FromSorted(st.bufV)
	st.bufV = st.bufV[:0]
	st.carry(s)
}

// carry propagates a summary up the binary counter, merging and
// compressing once per occupied level passed; the stream takes s over.
// Every flush and absorb funnels through here, so it drops the snapshot.
func (st *Stream) carry(s *Summary) {
	st.cache = nil
	for l := 0; ; l++ {
		if l == len(st.levels) {
			st.levels = append(st.levels, nil)
		}
		if st.levels[l] == nil {
			st.levels[l] = s
			return
		}
		s = &Summary{entries: st.mergeCompress(s.entries, st.levels[l].entries)}
		st.levels[l] = nil
	}
}

// mergeCompress returns the entries a.Merge(b) then a compression to the
// stream's grid leave, bit for bit, in a new array of at most the grid's
// bound, without modifying a or b. While the stream is not loose and the
// merged weight stays below 2^53, the merged total is known up front, so
// one pass (mergeSelect) merges and keeps only the grid's survivors;
// a merge that turns out to need no compression is redone straight into
// that array.
func (st *Stream) mergeCompress(a, b []Entry) []Entry {
	switch {
	case len(b) == 0:
		return st.compressCopy(a)
	case len(a) == 0:
		return st.compressCopy(b)
	}
	w := a[len(a)-1].MaxRank + b[len(b)-1].MaxRank
	if !(w < 1<<53) {
		st.loose = true
	}
	if st.loose {
		return st.compressCopy(merge2(make([]Entry, 0, len(a)+len(b)), a, b))
	}
	if len(a)+len(b) <= st.blockSize+1 {
		return merge2(make([]Entry, 0, len(a)+len(b)), a, b)
	}
	next, size := st.grid(w)
	out, n := mergeSelect(make([]Entry, 0, min(size, len(a)+len(b))), a, b, next)
	if n <= st.blockSize+1 {
		out = merge2(out[:0], a, b)
	}
	return out
}

// mergeSelect appends to dst what compressTargets(dst, merge2(nil, a, b),
// next) appends, in one pass over the non-empty a and b that holds only
// the merge's last three entries, and returns it with the merge's length.
// It runs compressTargets' walk forwards: prev and cur are the entries
// i−1 and i of that walk, and each new entry e is its lookahead — with e
// known, cur is not the last entry, so the pending target either moves the
// cursor on (cur's midpoint below it) or selects prev or cur. The merge is
// merge2's, one entry per loop.
func mergeSelect(dst, a, b []Entry, next func() (float64, bool)) ([]Entry, int) {
	var aLow, bLow, lo, hi float64
	aTotal, bTotal := a[len(a)-1].MaxRank, b[len(b)-1].MaxRank
	var i, j, n int
	var prev, cur Entry
	lastIdx := 0
	t, tOK := next()
	for {
		var v, w, minRank, maxRank float64
		switch {
		case i < len(a) && j < len(b):
			x, y := &a[i], &b[j]
			switch {
			case x.Value < y.Value:
				v, w, minRank, maxRank = x.Value, x.Weight, x.MinRank+bLow, x.MaxRank+y.prevMaxRank()
				aLow = x.nextMinRank()
				i++
			case y.Value < x.Value:
				v, w, minRank, maxRank = y.Value, y.Weight, y.MinRank+aLow, y.MaxRank+x.prevMaxRank()
				bLow = y.nextMinRank()
				j++
			default:
				v, w, minRank, maxRank = x.Value, x.Weight+y.Weight, x.MinRank+y.MinRank, x.MaxRank+y.MaxRank
				aLow = x.nextMinRank()
				bLow = y.nextMinRank()
				i++
				j++
			}
		case i < len(a):
			x := &a[i]
			v, w, minRank, maxRank = x.Value, x.Weight, x.MinRank+bLow, x.MaxRank+bTotal
			i++
		case j < len(b):
			y := &b[j]
			v, w, minRank, maxRank = y.Value, y.Weight, y.MinRank+aLow, y.MaxRank+aTotal
			j++
		default:
			if n > 1 {
				dst = append(dst, cur)
			}
			return dst, n
		}
		lo, hi = consistentBounds(minRank, maxRank, w, lo, hi)
		e := Entry{Value: v, Weight: w, MinRank: lo, MaxRank: hi}
		n++
		switch n {
		case 1:
			dst = append(dst, e)
			cur = e
			continue
		case 2:
			prev, cur = cur, e
			continue
		}
		for tOK && !(cur.midRank() < t) {
			if t-prev.midRank() <= cur.midRank()-t {
				if n-3 > lastIdx {
					dst = append(dst, prev)
					lastIdx = n - 3
				}
			} else if n-2 > lastIdx {
				dst = append(dst, cur)
				lastIdx = n - 2
			}
			t, tOK = next()
		}
		prev, cur = cur, e
	}
}

// AbsorbCounted merges another summary into the stream — the scale-out
// primitive: per-shard summaries produced elsewhere are absorbed by a
// coordinator stream. The absorbed summary is carried through the levels
// like a block, so the coordinator's error stays ≤ max(ε_self, ε_other) +
// ε_self. A summary does not carry its observation count or value sum, so
// the caller passes both (the cluster's wire reports ship them alongside
// it), and the stream's Count and Mean stay exact across shard hops.
func (st *Stream) AbsorbCounted(s *Summary, count int, sum float64) {
	if s == nil || s.Size() == 0 {
		return
	}
	st.cache = nil
	st.count += count
	st.sum += sum
	first, last := s.entries[0], s.entries[len(s.entries)-1]
	if first.Value < st.min {
		st.min = first.Value
	}
	if last.Value > st.max {
		st.max = last.Value
	}
	if !st.loose && !mergeExact([][]Entry{s.entries}) {
		st.loose = true
	}
	// The carry stores its summary only when level 0 is empty; otherwise
	// it merges from s without keeping or modifying it.
	c := s
	if len(s.entries) > st.blockSize+1 || len(st.levels) == 0 || st.levels[0] == nil {
		c = &Summary{entries: st.compressCopy(s.entries)}
	}
	st.carry(c)
}

// AbsorbStream absorbs a whole other stream (its current snapshot), carrying
// the exact count and sum over.
func (st *Stream) AbsorbStream(other *Stream) {
	if other == nil {
		return
	}
	st.AbsorbCounted(other.Snapshot(), other.count, other.sum)
	if other.count > 0 {
		if other.min < st.min {
			st.min = other.min
		}
		if other.max > st.max {
			st.max = other.max
		}
	}
}

// Snapshot returns the merged summary of everything pushed so far: the
// buffer's summary merged with MergeAll of the levels, in level order. The
// result is cached until the next Push/Absorb; callers must not mutate it
// (Clone first).
func (st *Stream) Snapshot() *Summary {
	if st.cache != nil {
		return st.cache
	}
	merged := MergeAll(st.levels)
	if len(st.bufV) > 0 {
		buf := FromUnsorted(st.bufV)
		buf.Merge(merged)
		merged = buf
	}
	st.cache = merged
	return merged
}

// Query returns the ε-approximate q-th quantile of the stream:
// Snapshot().Query(q), bit for bit, read from the levels and the buffer
// without building the snapshot unless the stream is loose.
func (st *Stream) Query(q float64) float64 {
	if st.cache != nil {
		return st.cache.Query(q)
	}
	total, ok := st.exactTotal()
	if !ok {
		return st.Snapshot().Query(q)
	}
	if total == 0 {
		return math.NaN()
	}
	var partsBuf [16][]Entry
	parts := partsBuf[:0]
	if len(st.bufV) > 0 {
		// The buffer's summary, built as Snapshot builds it (the same sort
		// of the same copy, so a ±0 run keeps the same sign): a query's
		// only allocation, and none once the buffer is flushed.
		parts = append(parts, FromUnsorted(st.bufV).entries)
	}
	for _, lv := range st.levels {
		if lv != nil && len(lv.entries) > 0 {
			parts = append(parts, lv.entries)
		}
	}
	return queryParts(parts, total, q)
}

// exactTotal returns the total weight of the buffer and the levels, and
// whether queries can read them in place: the stream is not loose, so
// every level passes mergeExact on its own (the buffer's summary always
// does), and the total is below 2^53, so every sum of their ranks is
// exact and the merged snapshot's bounds are those sums.
func (st *Stream) exactTotal() (float64, bool) {
	if st.loose {
		return 0, false
	}
	w := float64(len(st.bufV))
	for _, lv := range st.levels {
		if lv != nil {
			w += lv.TotalWeight()
		}
	}
	return w, w < 1<<53
}

// queryParts returns Summary.Query(q) on the merge of parts — non-empty
// entry lists in the fold order of Snapshot, each passing mergeExact, of
// total weight total below 2^53 — without building the merge. Each merged
// entry's bounds are the sums of the parts' own bounds at its value
// (mergedMid), the sums mergeKWay runs, exact in any order; so each
// midpoint has the merged entry's bits. Midpoints rise with value: one
// binary search per part finds its least value whose merged midpoint
// reaches the target, the least of those is the entry selectIdx's search
// stops at, and the greatest value below it in any part is that entry's
// predecessor, which wins selectIdx's tie. Parts are read in order and a
// value is replaced only by a strictly smaller (or, for the predecessor
// and the last entry, larger) one, so a value several parts hold (±0)
// comes from the first of them — the value the fold keeps.
func queryParts(parts [][]Entry, total, q float64) float64 {
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	target := q * total
	hit, found := 0.0, false
	for _, es := range parts {
		n := len(es)
		if found {
			n = lowerBound(es, hit) // only a smaller value can improve the hit
		}
		lo, hi := 0, n
		for lo < hi {
			m := int(uint(lo+hi) >> 1)
			if mergedMid(parts, es[m].Value) >= target {
				hi = m
			} else {
				lo = m + 1
			}
		}
		if lo < n {
			hit, found = es[lo].Value, true
		}
	}
	if !found {
		// Every midpoint is below the target (or it is NaN): selectIdx
		// returns the last entry, the largest value.
		for _, es := range parts {
			if v := es[len(es)-1].Value; !found || v > hit {
				hit, found = v, true
			}
		}
		return hit
	}
	pred, hasPred := 0.0, false
	for _, es := range parts {
		if j := lowerBound(es, hit); j > 0 && (!hasPred || es[j-1].Value > pred) {
			pred, hasPred = es[j-1].Value, true
		}
	}
	if hasPred && target-mergedMid(parts, pred) <= mergedMid(parts, hit)-target {
		return pred
	}
	return hit
}

// mergedMid returns the rank midpoint of the merged entry at v, a value
// some part holds: per part, its entry's bounds when it holds v, and
// otherwise its bounds on its weight below v — its last entry under v's
// MinRank+Weight and its first entry over v's MaxRank−Weight (its total
// past its end).
func mergedMid(parts [][]Entry, v float64) float64 {
	var lo, hi float64
	for _, es := range parts {
		j := lowerBound(es, v)
		if j < len(es) && es[j].Value == v {
			lo += es[j].MinRank
			hi += es[j].MaxRank
			continue
		}
		if j > 0 {
			lo += es[j-1].nextMinRank()
		}
		if j < len(es) {
			hi += es[j].prevMaxRank()
		} else {
			hi += es[len(es)-1].MaxRank
		}
	}
	return (lo + hi) / 2
}

// lowerBound returns the index of the first entry of es whose value is at
// least v (len(es) when none is).
func lowerBound(es []Entry, v float64) int {
	lo, hi := 0, len(es)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if es[m].Value < v {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// Count returns the number of observations pushed.
func (st *Stream) Count() int { return st.count }

// Sum returns the exact Σ value of everything pushed or absorbed.
func (st *Stream) Sum() float64 { return st.sum }

// Mean returns the mean of the stream (Sum/TotalWeight) — the downstream
// mean estimator that replaces buffering raw values. NaN when empty.
func (st *Stream) Mean() float64 {
	w := st.TotalWeight()
	if w == 0 {
		return math.NaN()
	}
	return st.sum / w
}

// TotalWeight returns the summarized total weight: Snapshot's, summed
// from the levels and the buffer unless the stream is loose.
func (st *Stream) TotalWeight() float64 {
	if w, ok := st.exactTotal(); ok {
		return w
	}
	return st.Snapshot().TotalWeight()
}

// Min returns the exact minimum pushed value (+Inf when empty).
func (st *Stream) Min() float64 { return st.min }

// Max returns the exact maximum pushed value (−Inf when empty).
func (st *Stream) Max() float64 { return st.max }

// StreamState is the complete serializable state of a Stream: configuration,
// exact counters, the raw push buffer and the level counter. Restoring it
// with FromState yields a stream whose every subsequent observable —
// Snapshot, Query, Count, Sum, Min, Max — is bit-identical to the original's,
// including after further pushes and absorbs, which is what lets a
// checkpointed coordinator resume a game mid-flight without perturbing its
// kept-stream estimates (internal/fleet).
type StreamState struct {
	Epsilon   float64
	BlockSize int
	Count     int
	Sum       float64
	Min, Max  float64

	// BufV mirrors the raw push buffer.
	BufV []float64

	// Levels mirrors the binary counter; nil slots are empty levels and are
	// significant (they decide where the next carry lands).
	Levels []*Summary
}

// State deep-copies the stream's full state. The copy shares nothing with
// the live stream, so it can be serialized (or held) while the stream keeps
// absorbing.
func (st *Stream) State() *StreamState {
	s := &StreamState{
		Epsilon:   st.eps,
		BlockSize: st.blockSize,
		Count:     st.count,
		Sum:       st.sum,
		Min:       st.min,
		Max:       st.max,
	}
	if len(st.bufV) > 0 {
		s.BufV = append([]float64(nil), st.bufV...)
	}
	for _, lv := range st.levels {
		if lv == nil {
			s.Levels = append(s.Levels, nil)
			continue
		}
		s.Levels = append(s.Levels, lv.Clone())
	}
	return s
}

// FromState rebuilds a Stream from a State() copy (or a decoded wire
// snapshot). The input is deep-copied. A state New could not have built —
// an ε outside New's range, a block size New's sizing never yields for that
// ε (the push buffer is allocated at that size, so an unchecked one could
// ask for any amount of memory), a buffer at or past the flush point, a
// negative count — is rejected rather than resumed.
func FromState(s *StreamState) (*Stream, error) {
	if s == nil {
		return nil, fmt.Errorf("summary: nil stream state")
	}
	if !(s.Epsilon >= minEpsilon && s.Epsilon < 1) {
		return nil, fmt.Errorf("summary: stream state epsilon %v outside [%g, 1)", s.Epsilon, minEpsilon)
	}
	if lo, hi := blockSizeRange(s.Epsilon); s.BlockSize < lo || s.BlockSize > hi {
		return nil, fmt.Errorf("summary: stream state block size %d outside [%d, %d] for epsilon %v", s.BlockSize, lo, hi, s.Epsilon)
	}
	if len(s.BufV) >= s.BlockSize {
		return nil, fmt.Errorf("summary: stream state buffer %d at/past flush point %d", len(s.BufV), s.BlockSize)
	}
	if s.Count < 0 {
		return nil, fmt.Errorf("summary: stream state count %d", s.Count)
	}
	st := &Stream{
		eps:       s.Epsilon,
		blockSize: s.BlockSize,
		bufV:      make([]float64, len(s.BufV), s.BlockSize),
		count:     s.Count,
		sum:       s.Sum,
		min:       s.Min,
		max:       s.Max,
	}
	copy(st.bufV, s.BufV)
	// Push skips NaN, but a decoded state's buffer can hold one, and the
	// buffer's summary then fails mergeExact as a loose level does.
	st.loose = slices.ContainsFunc(st.bufV, math.IsNaN)
	for _, lv := range s.Levels {
		if lv == nil {
			st.levels = append(st.levels, nil)
			continue
		}
		if len(lv.entries) > 0 && !mergeExact([][]Entry{lv.entries}) {
			st.loose = true
		}
		st.levels = append(st.levels, lv.Clone())
	}
	return st, nil
}

// Reset empties the stream, keeping its configuration.
func (st *Stream) Reset() {
	st.bufV = st.bufV[:0]
	clear(st.levels)
	st.levels = st.levels[:0]
	st.count = 0
	st.sum = 0
	st.min = math.Inf(1)
	st.max = math.Inf(-1)
	st.cache = nil
	st.loose = false
}
