package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"repro/internal/stats"
	"repro/internal/stats/summary"
)

// Summary block layout. A block is a u32 entry count, and an entry-free
// block ends there. A non-empty block continues with one form byte, then
// each entry in order:
//
//	value  the delta of stats.Float64Key(Value) from the previous entry's
//	       key (from 0 for the first entry): a length byte ≤ 8, then that
//	       many low-order bytes of the delta, little-endian
//	ranks  formInt: Weight, MinRank − the previous MinRank (MinRank itself
//	       for the first entry) and MaxRank − MinRank − Weight, as uvarints;
//	       formFloat: Weight, MinRank and MaxRank as raw f64s
//
// A block takes formInt when every rank field in it is an exact integer in
// [0, 2^53], not −0, and both differences are non-negative — every summary
// of at most 2^53 pushed observations, since valid ranks never regress —
// and formFloat otherwise: a fraction or −0, which only a peer's
// float-form bytes carry, or a rank past 2^53, which merges can reach.
// Float64Key orders keys like the values, so a sorted summary's deltas are
// positive and, for a continuous sample, a few bytes each. Both forms
// reproduce every field bit for bit.
const (
	formInt   byte = 0
	formFloat byte = 1

	// maxExact is 2^53: every integer in [0, maxExact] is exact in float64.
	maxExact = 1 << 53
	// minEntrySize is the fewest bytes an entry can take (an empty value
	// delta and three one-byte uvarints) — what count checks a block's
	// entry count against.
	minEntrySize = 4
)

// rankInt returns x as an integer, or −1 when it is not exactly one: a
// fraction, −0 (which would come back as +0), NaN, ±Inf or out of range.
func rankInt(x float64) int64 {
	i := int64(x)
	if math.Float64bits(float64(i)) != math.Float64bits(x) {
		return -1
	}
	return i
}

// blockLayout picks the form of a non-empty entry list and returns the
// size of its encoding after the count.
func blockLayout(entries []summary.Entry) (form byte, size int) {
	size = 1 + len(entries) // the form byte, one length byte per entry
	ranks := 0              // Σ uvarint sizes while formInt is still possible
	integral := true
	var key uint64
	var prevMin int64
	for _, e := range entries {
		k := stats.Float64Key(e.Value)
		size += deltaLen(k - key)
		key = k
		if !integral {
			continue
		}
		// The integer form holds the entry when every rank field is an
		// exact integer in [0, 2^53], MinRank does not regress below
		// prevMin ≥ 0 and MaxRank − MinRank − Weight is not negative. That
		// is one sign test: while w, lo and hi are not negative and hi is
		// at most 2^53, none of the differences in the OR can wrap.
		w, lo, hi := rankInt(e.Weight), rankInt(e.MinRank), rankInt(e.MaxRank)
		if w|lo|hi|(maxExact-hi)|(lo-prevMin)|(hi-lo)|(hi-lo-w) < 0 {
			integral = false
			continue
		}
		step, spread := lo-prevMin, hi-lo-w
		if w|step|spread < 0x80 {
			ranks += 3
		} else {
			ranks += uvarintLen(uint64(w)) + uvarintLen(uint64(step)) + uvarintLen(uint64(spread))
		}
		prevMin = lo
	}
	if integral {
		return formInt, size + ranks
	}
	return formFloat, size + 24*len(entries)
}

// deltaLen is the byte length of a key delta: its significant low bytes.
func deltaLen(d uint64) int { return (bits.Len64(d) + 7) >> 3 }

// uvarintLen is the byte length of v as a uvarint.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// putUvarint writes v at b[off:] and returns the offset after it.
func putUvarint(b []byte, off int, v uint64) int {
	if v < 0x80 {
		b[off] = byte(v)
		return off + 1
	}
	return off + binary.PutUvarint(b[off:], v)
}

// appendSummaryBlock writes a headerless summary block in the layout
// above. Blocks nest inside vectors, reports, directives and snapshot
// stream states; no message is a summary on its own. blockLayout sizes
// the block exactly, so the output grows once.
func appendSummaryBlock(buf []byte, s *summary.Summary) []byte {
	if s == nil {
		return appendU32(buf, 0)
	}
	entries := s.Entries()
	buf = appendU32(buf, uint32(len(entries)))
	if len(entries) == 0 {
		return buf
	}
	form, size := blockLayout(entries)
	// Each value delta is stored as a whole u64 and the offset advanced by
	// its length, so the block is written with 8 bytes of slack.
	end := len(buf) + size
	buf, b := extend(buf, size+8)
	b[0] = form
	off := 1
	var key uint64
	var prevMin int64
	for _, e := range entries {
		k := stats.Float64Key(e.Value)
		d := k - key
		key = k
		n := deltaLen(d)
		b[off] = byte(n)
		binary.LittleEndian.PutUint64(b[off+1:], d)
		off += 1 + n
		if form == formFloat {
			putF64(b[off:], e.Weight)
			putF64(b[off+8:], e.MinRank)
			putF64(b[off+16:], e.MaxRank)
			off += 24
			continue
		}
		w, lo, hi := int64(e.Weight), int64(e.MinRank), int64(e.MaxRank)
		step, spread := lo-prevMin, hi-lo-w
		prevMin = lo
		if w|step|spread < 0x80 {
			b[off], b[off+1], b[off+2] = byte(w), byte(step), byte(spread)
			off += 3
			continue
		}
		off = putUvarint(b, off, uint64(w))
		off = putUvarint(b, off, uint64(step))
		off = putUvarint(b, off, uint64(spread))
	}
	return buf[:end]
}

// readSummaryBlock reads a block written by appendSummaryBlock and rebuilds
// the summary through summary.FromEntries, so structurally invalid entries
// (unsorted or NaN values, non-positive weights, inconsistent or regressing
// ranks) are rejected here rather than corrupting a later merge. The
// decoder itself rejects what the layout cannot express: an unknown form,
// a delta longer than 8 bytes, a key past 2^64 and an integer rank past
// 2^53. Entries decode into the reader's scratch, which FromEntries copies
// out of.
func readSummaryBlock(r *reader) (*summary.Summary, error) {
	n := r.count("summary entries", minEntrySize)
	if r.err != nil {
		return nil, r.err
	}
	if n == 0 {
		// nil and empty summaries share the zero encoding; both mean "no
		// observations", so decoding to nil keeps Encode∘Decode idempotent.
		return nil, nil
	}
	form := r.u8("summary form")
	if r.err != nil {
		return nil, r.err
	}
	if form != formInt && form != formFloat {
		return nil, fmt.Errorf("wire: unknown summary block form %d", form)
	}
	entries := slices.Grow(r.entries[:0], n)[:n]
	b, off := r.buf, r.off
	var key, prevMin uint64
	for i := range entries {
		if off >= len(b) {
			return nil, r.failAt(off, "summary entry")
		}
		l := int(b[off])
		off++
		if l > 8 {
			return nil, fmt.Errorf("wire: summary entry %d: %d-byte value delta", i, l)
		}
		var d uint64
		switch {
		case len(b)-off >= 8:
			d = binary.LittleEndian.Uint64(b[off:]) & (1<<(8*l) - 1)
		case len(b)-off >= l:
			for j := l - 1; j >= 0; j-- {
				d = d<<8 | uint64(b[off+j])
			}
		default:
			return nil, r.failAt(off, "summary entry")
		}
		off += l
		if key+d < key {
			return nil, fmt.Errorf("wire: summary entry %d: value key overflows", i)
		}
		key += d
		e := &entries[i]
		e.Value = stats.KeyFloat64(key)
		if form == formFloat {
			if len(b)-off < 24 {
				return nil, r.failAt(off, "summary entry")
			}
			e.Weight, e.MinRank, e.MaxRank = getF64(b[off:]), getF64(b[off+8:]), getF64(b[off+16:])
			off += 24
			continue
		}
		// Weight, MinRank step, rank spread: almost always a byte each.
		var w, step, spread uint64
		if len(b)-off >= 3 && b[off]|b[off+1]|b[off+2] < 0x80 {
			w, step, spread = uint64(b[off]), uint64(b[off+1]), uint64(b[off+2])
			off += 3
		} else {
			var rk [3]uint64
			for j := range rk {
				x, m := binary.Uvarint(b[off:])
				if m == 0 {
					return nil, r.failAt(off, "summary entry")
				}
				if m < 0 || x > maxExact {
					return nil, fmt.Errorf("wire: summary entry %d: rank field above 2^53", i)
				}
				rk[j], off = x, off+m
			}
			w, step, spread = rk[0], rk[1], rk[2]
		}
		lo := prevMin + step
		hi := lo + w + spread
		if hi > maxExact {
			return nil, fmt.Errorf("wire: summary entry %d: rank %d above 2^53", i, hi)
		}
		// Both sides of each conversion are at most 2^53, so the signed
		// conversion (cheaper than the unsigned one) is exact.
		e.Weight, e.MinRank, e.MaxRank = float64(int64(w)), float64(int64(lo)), float64(int64(hi))
		prevMin = lo
	}
	r.off = off
	r.entries = entries
	return summary.FromEntries(entries)
}

// VectorDelta is the decoded form of a serialized summary.Vector: one
// summary per coordinate plus the exact row count and per-coordinate value
// sums, and the ε budget the streams were built with. It is the unit a row
// shard ships to the coordinator each round; the receiver absorbs Dims[i]
// into its own vector's coordinate streams (ε_merge = max of the two sides).
type VectorDelta struct {
	Epsilon float64
	Count   int                // rows behind the sketch (exact)
	Sums    []float64          // per-coordinate Σ value (exact)
	Dims    []*summary.Summary // per-coordinate snapshots
}

// DeltaFromVector snapshots a live vector into its wire form. A nil or
// empty vector yields nil, which a worker leaves out of its report.
func DeltaFromVector(v *summary.Vector) *VectorDelta {
	if v == nil || v.Dim() == 0 || v.Count() == 0 {
		return nil
	}
	d := &VectorDelta{
		Epsilon: v.Epsilon(),
		Count:   v.Count(),
		Sums:    make([]float64, v.Dim()),
		Dims:    make([]*summary.Summary, v.Dim()),
	}
	for i := 0; i < v.Dim(); i++ {
		st := v.Coord(i)
		d.Sums[i] = st.Sum()
		d.Dims[i] = st.Snapshot()
	}
	return d
}

// readVectorBlock reads a block written by appendVectorDelta. A zero dim
// yields a nil delta, which a report refuses as a leaf's vector.
func readVectorBlock(r *reader) (*VectorDelta, error) {
	// Each coordinate carries at least a sum and an entry count.
	dim := r.count("vector dim", 12)
	if r.err != nil {
		return nil, r.err
	}
	if dim == 0 {
		return nil, nil
	}
	d := &VectorDelta{
		Epsilon: r.f64("vector epsilon"),
		Count:   int(r.u64("vector count")),
		Sums:    make([]float64, dim),
		Dims:    make([]*summary.Summary, dim),
	}
	for i := 0; i < dim; i++ {
		d.Sums[i] = r.f64("coordinate sum")
		s, err := readSummaryBlock(r)
		if err != nil {
			return nil, err
		}
		d.Dims[i] = s
	}
	if r.err != nil {
		return nil, r.err
	}
	if d.Count < 0 {
		return nil, fmt.Errorf("wire: vector count %d", d.Count)
	}
	return d, nil
}
