package summary

import (
	"fmt"
	"math"
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
// O(maxLevels·blockSize) = O(log(εn)/ε) regardless of stream length.
//
// Queries are served from a cached merged snapshot of all levels plus the
// current partial buffer, so interleaving Push and Query costs one merge
// per round at worst — the per-round pattern of the collection game.
type Stream struct {
	eps       float64
	blockSize int

	bufV   []float64  // raw pushes since the last flush
	levels []*Summary // levels[l] == nil when the slot is empty

	count    int     // observations pushed or absorbed
	sum      float64 // Σ value of everything pushed/absorbed
	min, max float64

	cache *Summary // merged snapshot; invalidated by Push/Absorb

	// levelCache is the merged summary of the levels alone (no buffer). A
	// Push only dirties the buffer, so the level merge survives until the
	// next flush/carry — interleaved Push/Query re-merges the partial
	// buffer, not the whole counter. levelBuilds counts rebuilds (the
	// invalidate-once regression tests read it).
	levelCache  *Summary
	levelBuilds int

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

// compress applies the stream's compression budget to s: the plain
// blockSize grid, or the focused grid when SetFocus is active.
func (st *Stream) compress(s *Summary) {
	if st.focusTighten > 1 {
		s.CompressFocused(st.blockSize, st.focusLo, st.focusHi, st.focusTighten)
		return
	}
	s.Compress(st.blockSize)
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

// carry propagates a summary up the binary counter. The levels change, so
// both the full snapshot cache and the level cache are invalidated here —
// the single chokepoint every flush/absorb funnels through.
func (st *Stream) carry(s *Summary) {
	st.cache = nil
	st.levelCache = nil
	for l := 0; ; l++ {
		if l == len(st.levels) {
			st.levels = append(st.levels, nil)
		}
		if st.levels[l] == nil {
			st.levels[l] = s
			return
		}
		s.Merge(st.levels[l])
		st.compress(s)
		st.levels[l] = nil
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
	c := s.Clone()
	st.compress(c)
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

// Snapshot returns the merged summary of everything pushed so far. The
// result is cached until the next Push/Absorb; callers must not mutate it
// (Clone first). The merge of the level counter (MergeAll, in level
// order) is cached separately and survives pushes (only a flush/carry
// dirties it), so the steady Push/Query interleaving of the collection
// game re-merges the partial buffer against one pre-merged summary
// instead of re-walking every level. Merge is associative, so the
// regrouping leaves snapshots bit-identical (their integer rank
// arithmetic is exact in float64).
func (st *Stream) Snapshot() *Summary {
	if st.cache != nil {
		return st.cache
	}
	if st.levelCache == nil {
		st.levelBuilds++
		st.levelCache = MergeAll(st.levels)
	}
	if len(st.bufV) == 0 {
		st.cache = st.levelCache
		return st.cache
	}
	merged := FromUnsorted(st.bufV)
	merged.Merge(st.levelCache)
	st.cache = merged
	return merged
}

// Query returns the ε-approximate q-th quantile of the stream.
func (st *Stream) Query(q float64) float64 { return st.Snapshot().Query(q) }

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

// TotalWeight returns the summarized total weight.
func (st *Stream) TotalWeight() float64 { return st.Snapshot().TotalWeight() }

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
	for _, lv := range s.Levels {
		if lv == nil {
			st.levels = append(st.levels, nil)
			continue
		}
		st.levels = append(st.levels, lv.Clone())
	}
	return st, nil
}

// Reset empties the stream, keeping its configuration.
func (st *Stream) Reset() {
	st.bufV = st.bufV[:0]
	st.levels = st.levels[:0]
	st.count = 0
	st.sum = 0
	st.min = math.Inf(1)
	st.max = math.Inf(-1)
	st.cache = nil
	st.levelCache = nil
}
