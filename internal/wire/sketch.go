package wire

import (
	"fmt"
	"slices"

	"repro/internal/stats/summary"
)

// entrySize is the encoded size of one summary entry: four float64 fields.
const entrySize = 32

// appendSummaryBlock writes a headerless summary block: u32 entry count,
// then {value, weight, minRank, maxRank} per entry. Blocks nest inside
// vectors, reports and directives; the standalone KindSummary message is the
// same block behind a header.
func appendSummaryBlock(buf []byte, s *summary.Summary) []byte {
	if s == nil {
		return appendU32(buf, 0)
	}
	entries := s.Entries()
	buf, b := extend(appendU32(buf, uint32(len(entries))), entrySize*len(entries))
	for i, e := range entries {
		eb := b[entrySize*i : entrySize*(i+1)]
		putF64(eb[0:], e.Value)
		putF64(eb[8:], e.Weight)
		putF64(eb[16:], e.MinRank)
		putF64(eb[24:], e.MaxRank)
	}
	return buf
}

// readSummaryBlock reads a block written by appendSummaryBlock and rebuilds
// the summary through summary.FromEntries, so structurally invalid entries
// (unsorted values, negative weights, inconsistent ranks) are rejected here
// rather than corrupting a later merge. Entries decode into the reader's
// scratch, which FromEntries copies out of.
func readSummaryBlock(r *reader) (*summary.Summary, error) {
	n := r.count("summary entries", entrySize)
	if r.err != nil {
		return nil, r.err
	}
	if n == 0 {
		// nil and empty summaries share the zero encoding; both mean "no
		// observations", so decoding to nil keeps Encode∘Decode idempotent.
		return nil, nil
	}
	b := r.next(entrySize * n)
	entries := slices.Grow(r.entries[:0], n)[:n]
	for i := range entries {
		eb := b[entrySize*i : entrySize*(i+1)]
		entries[i] = summary.Entry{
			Value:   getF64(eb[0:]),
			Weight:  getF64(eb[8:]),
			MinRank: getF64(eb[16:]),
			MaxRank: getF64(eb[24:]),
		}
	}
	r.entries = entries
	return summary.FromEntries(entries)
}

// EncodeSummary serializes one quantile summary, appending to buf (pass nil
// for a fresh allocation). The encoding is bit-exact: DecodeSummary returns
// a summary with identical entries, so merge results are identical on both
// sides of the wire.
func EncodeSummary(buf []byte, s *summary.Summary) []byte {
	return appendSummaryBlock(appendHeader(buf, KindSummary), s)
}

// DecodeSummary decodes an EncodeSummary message.
func DecodeSummary(buf []byte) (*summary.Summary, error) {
	payload, err := checkHeader(buf, KindSummary)
	if err != nil {
		return nil, err
	}
	r := &reader{buf: payload}
	s, err := readSummaryBlock(r)
	if err != nil {
		return nil, err
	}
	if err := r.finish(); err != nil {
		return nil, err
	}
	return s, nil
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
// empty vector yields nil (encoded as dim 0).
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

// readVectorBlock reads a block written by appendVectorDelta (a zero dim
// is also what EncodeVector and EncodeReport write for a nil delta). A zero
// dim yields a nil delta (the encoding of "no rows accepted this round").
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

// EncodeVector serializes the current state of a summary.Vector.
func EncodeVector(buf []byte, v *summary.Vector) []byte {
	buf = appendHeader(buf, KindVector)
	d := DeltaFromVector(v)
	if d == nil {
		return appendU32(buf, 0)
	}
	return appendVectorDelta(buf, d)
}

// DecodeVector decodes an EncodeVector message.
func DecodeVector(buf []byte) (*VectorDelta, error) {
	payload, err := checkHeader(buf, KindVector)
	if err != nil {
		return nil, err
	}
	r := &reader{buf: payload}
	d, err := readVectorBlock(r)
	if err != nil {
		return nil, err
	}
	if err := r.finish(); err != nil {
		return nil, err
	}
	return d, nil
}
