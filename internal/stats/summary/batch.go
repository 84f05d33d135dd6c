package summary

import (
	"math"
	"slices"
	"sync"

	"repro/internal/stats"
)

// Batch ingestion (DESIGN.md §12). PushBatch feeds the level counter in
// L2-cache-sized chunks instead of touching the stream per item. Each
// chunk runs a fused pipeline over pooled scratch:
//
//  1. one scan filters NaNs, folds the Count/Sum accounting, converts each
//     value to its order-preserving uint64 key and builds all radix
//     histograms;
//  2. an LSD radix sort over the high key word (single-bucket passes
//     skipped, low-word ties finished by a per-run comparison sort) orders
//     the keys;
//  3. the block summary is built straight off the sorted keys — runs of
//     equal values stream through the same target-grid walk Compress uses,
//     so only the ≤ blockSize+1 survivors are ever materialized — and
//     carried as a single block.
//
// Relative to item-wise Push this replaces ~chunk/blockSize sorts, exact
// block builds and carry cascades with one of each, and the steady-state
// path allocates only the surviving entries per chunk.
//
// The batch path is governed by the same error accounting as Push: a chunk
// block enters the counter with one compression already applied (≤
// 1/blockSize added rank error) and pays the same one-compression-per-level
// toll on the way up, so the stream's ε budget — sized for maxLevels+2
// compressions — still covers it. Batch and item-wise ingestion are
// rank-equivalent within ε but not bit-identical (the chunk partition
// differs from the block partition), so paths that must reproduce each
// other bit for bit have to agree on which API they use.

// batchChunk is the direct-chunk size floor in values: 32768 float64s =
// 256 KiB, sized to stay resident in a per-core L2 while amortizing the
// carry cascade over many blocks. Chunks are max(blockSize, batchChunk).
const batchChunk = 1 << 15

// batchScratch is the pooled working set of one chunk flush — the radix
// key buffers — and of one Vector.PushRows, which gathers each column into
// vals. Everything is length-reset and capacity-retained between uses.
type batchScratch struct {
	vals []float64
	keys []uint64
	tmp  []uint64
}

var batchPool = sync.Pool{New: func() any { return new(batchScratch) }}

// PushBatch absorbs a slice of observations. Equivalent to pushing each
// value in order (NaNs skipped; Count/Sum/Min/Max identical), with the
// snapshot cache invalidated once for the whole batch.
func (st *Stream) PushBatch(values []float64) {
	if len(values) == 0 {
		return
	}
	st.cache = nil
	i, n := 0, len(values)
	for i < n {
		// With an empty buffer and at least a block of input left, flush a
		// chunk directly; otherwise feed the buffer item-wise — topping a
		// partial buffer up to its flush point, or parking a sub-block tail.
		if len(st.bufV) == 0 && n-i >= st.blockSize {
			i += st.flushChunk(values[i:])
			continue
		}
		v := values[i]
		i++
		if math.IsNaN(v) {
			continue
		}
		st.push1(v)
	}
}

// flushChunk absorbs one direct chunk from the head of rem and returns how
// many inputs it consumed. The chunk boundary is a pure function of
// (remaining length, blockSize), so identical push sequences chunk
// identically everywhere. The chunk runs the fused pipeline: filter +
// accounting + key conversion + histogramming in one scan, radix sort,
// then a block summary streamed off the sorted keys. Min/Max fall out of
// the sorted extremes.
func (st *Stream) flushChunk(rem []float64) int {
	m := st.blockSize
	if m < batchChunk {
		m = batchChunk
	}
	if m > len(rem) {
		m = len(rem)
	}
	chunk := rem[:m]
	sc := batchPool.Get().(*batchScratch)
	if cap(sc.keys) < len(chunk) || cap(sc.tmp) < len(chunk) {
		sc.keys = make([]uint64, len(chunk))
		sc.tmp = make([]uint64, len(chunk))
	}
	// The scan loops index a pre-sized buffer and accumulate into locals so
	// the hot loop is call-free (an append could grow; a stream field write
	// forces a reload every iteration).
	keys := sc.keys[:len(chunk)]
	w := 0
	cnt, sm := st.count, st.sum
	var sorted []uint64
	if len(chunk) < stats.RadixMin {
		for _, v := range chunk {
			if math.IsNaN(v) {
				continue
			}
			cnt++
			sm += v
			keys[w] = stats.Float64Key(v)
			w++
		}
		keys = keys[:w]
		slices.Sort(keys)
		sorted = keys
	} else {
		var hist stats.RadixHist
		for _, v := range chunk {
			if math.IsNaN(v) {
				continue
			}
			cnt++
			sm += v
			k := stats.Float64Key(v)
			keys[w] = k
			w++
			hist.Add(k)
		}
		keys = keys[:w]
		var spare []uint64
		sorted, spare = stats.RadixSortKeys(keys, sc.tmp[:w], &hist)
		sc.keys, sc.tmp = sorted[:cap(sorted)], spare[:cap(spare)]
	}
	st.count, st.sum = cnt, sm
	if n := len(sorted); n > 0 {
		if lo := stats.KeyFloat64(sorted[0]); lo < st.min {
			st.min = lo
		}
		if hi := stats.KeyFloat64(sorted[n-1]); hi > st.max {
			st.max = hi
		}
		st.carry(st.buildBlockKeys(sorted))
	}
	batchPool.Put(sc)
	return m
}

// buildBlockKeys turns a sorted key chunk into a compressed block summary
// without materializing the exact per-value entries: runs of equal values
// stream off the keys through the same target-grid walk as
// compressTargets, so only survivors are written. The result is identical
// to dedup-then-compress — run boundaries, rank arithmetic (exact integers
// in float64), grid targets and the nearest-midpoint/lastIdx selection all
// match — while touching O(blockSize) memory instead of O(chunk).
func (st *Stream) buildBlockKeys(keys []uint64) *Summary {
	n := len(keys)
	bs := st.blockSize
	if bs < 2 {
		bs = 2
	}
	// Upper bound on distinct values via key equality (the keys of −0.0 and
	// +0.0 differ but decode to equal values; at most one adjacent pair
	// collapses, which can only make the summary one entry smaller).
	runs := 1
	for i := 1; i < n; i++ {
		if keys[i] != keys[i-1] {
			runs++
		}
	}
	// Runs are tracked as (key, rank interval) and decoded to an Entry only
	// when they survive — the walk below discards most runs unseen. Run
	// boundaries are key boundaries, except the one distinct-key pair that
	// decodes to equal values: −0.0 then +0.0, folded explicitly.
	pos := 0
	nextRun := func() (keyRun, bool) {
		if pos >= n {
			return keyRun{}, false
		}
		k := keys[pos]
		start := pos
		pos++
		for pos < n && keys[pos] == k {
			pos++
		}
		if k == negZeroKey && pos < n && keys[pos] == posZeroKey {
			for pos < n && keys[pos] == posZeroKey {
				pos++
			}
		}
		return keyRun{k: k, start: start, end: pos}, true
	}
	if runs <= bs+1 {
		// Within the block budget: exact, no compression — mirrors the
		// n ≤ b+1 early return in Compress/CompressFocused.
		entries := make([]Entry, 0, runs)
		for {
			r, ok := nextRun()
			if !ok {
				break
			}
			entries = append(entries, r.entry())
		}
		return &Summary{entries: entries}
	}
	w := float64(n)
	var next func() (float64, bool)
	capHint := bs + 2
	if st.focusTighten > 1 && st.focusHi > st.focusLo {
		next = focusGridTargets(w, bs, st.focusLo, st.focusHi, st.focusTighten)
		capHint += int(float64(bs)*float64(st.focusTighten)*(st.focusHi-st.focusLo)) + 2
	} else {
		next = gridTargets(w, bs)
	}
	// Streaming mirror of compressTargets: prev/cur shadow entries i−1 and
	// i, the one-run lookahead la tells us when cur is the final run (the
	// walk never selects it; it is appended unconditionally at the end).
	// runs ≥ bs+3 here, so cur and la both exist.
	out := make([]Entry, 0, capHint)
	first, _ := nextRun()
	out = append(out, first.entry())
	prev := first
	cur, _ := nextRun()
	curIdx := 1
	la, laOK := nextRun()
	lastIdx := 0
	for {
		t, ok := next()
		if !ok {
			break
		}
		for laOK && cur.mid() < t {
			prev, cur, curIdx = cur, la, curIdx+1
			la, laOK = nextRun()
		}
		if !laOK {
			break // the cursor reached the final run
		}
		j, jIdx := cur, curIdx
		if t-prev.mid() <= cur.mid()-t {
			j, jIdx = prev, curIdx-1
		}
		if jIdx > lastIdx {
			out = append(out, j.entry())
			lastIdx = jIdx
		}
	}
	for laOK {
		cur = la
		la, laOK = nextRun()
	}
	return &Summary{entries: append(out, cur.entry())}
}

// keyRun is one maximal run of equal values in a sorted key chunk: the run's
// key and its half-open rank interval. Rank arithmetic stays on exact
// integers in float64, matching the exact dedup build bit for bit.
type keyRun struct {
	k          uint64
	start, end int
}

// mid matches Entry.midRank on the run's entry.
func (r keyRun) mid() float64 {
	return (float64(r.start) + float64(r.end)) / 2
}

func (r keyRun) entry() Entry {
	return Entry{Value: stats.KeyFloat64(r.k), Weight: float64(r.end - r.start), MinRank: float64(r.start), MaxRank: float64(r.end)}
}

const (
	negZeroKey = ^uint64(1 << 63) // stats.Float64Key(-0.0)
	posZeroKey = uint64(1 << 63)  // stats.Float64Key(+0.0)
)
