package summary

import "fmt"

// Vector maintains one quantile Stream per coordinate of a row stream. It
// replaces the "retain every accepted row, re-sort every coordinate each
// round" pattern for coordinate-wise medians (the collector's robust center
// in internal/collect) with O(dim · log(εn)/ε) memory and O(dim) amortized
// work per accepted row.
type Vector struct {
	dims []*Stream
}

// NewVector returns a Vector of dim coordinate streams with rank-error
// budget eps (DefaultEpsilon when 0), each sized for about hint rows.
func NewVector(dim int, eps float64, hint int) (*Vector, error) {
	if dim <= 0 {
		return nil, fmt.Errorf("summary: vector dim %d", dim)
	}
	v := &Vector{dims: make([]*Stream, dim)}
	for i := range v.dims {
		st, err := New(eps, hint)
		if err != nil {
			return nil, err
		}
		v.dims[i] = st
	}
	return v, nil
}

// VectorFromState reconstructs a Vector from per-coordinate stream states
// (States' counterpart). The restored vector answers every later query bit
// for bit like the original — the row-game checkpoint relies on this.
func VectorFromState(states []*StreamState) (*Vector, error) {
	if len(states) == 0 {
		return nil, fmt.Errorf("summary: vector from %d coordinate states", len(states))
	}
	v := &Vector{dims: make([]*Stream, len(states))}
	for i, st := range states {
		if st == nil {
			return nil, fmt.Errorf("summary: nil state for vector coordinate %d", i)
		}
		s, err := FromState(st)
		if err != nil {
			return nil, err
		}
		v.dims[i] = s
	}
	return v, nil
}

// States snapshots every coordinate stream (Stream.State) in coordinate
// order, the serializable form VectorFromState restores.
func (v *Vector) States() []*StreamState {
	out := make([]*StreamState, len(v.dims))
	for i, st := range v.dims {
		out[i] = st.State()
	}
	return out
}

// Dim returns the number of coordinates.
func (v *Vector) Dim() int { return len(v.dims) }

// Epsilon returns the rank-error budget the coordinate streams were built
// with — exposed for the wire encoder, which must ship the budget alongside
// the sketch so a receiver can account ε across encode/merge.
func (v *Vector) Epsilon() float64 {
	if len(v.dims) == 0 {
		return 0
	}
	return v.dims[0].Epsilon()
}

// Coord returns the live stream of coordinate i (not a copy). The wire
// encoder snapshots it; a merging coordinator absorbs per-coordinate shard
// summaries into it. Callers must not retain it across a Reset.
func (v *Vector) Coord(i int) *Stream { return v.dims[i] }

// Count returns the number of rows pushed.
func (v *Vector) Count() int {
	if len(v.dims) == 0 {
		return 0
	}
	return v.dims[0].Count()
}

// PushRow absorbs one row; its length must equal Dim.
func (v *Vector) PushRow(row []float64) error {
	if len(row) != len(v.dims) {
		return fmt.Errorf("summary: row dim %d, vector dim %d", len(row), len(v.dims))
	}
	for i, x := range row {
		v.dims[i].Push(x)
	}
	return nil
}

// PushRows absorbs a slice of rows through each coordinate's batch path:
// one pooled column gather and one PushBatch per dimension, so ingesting a
// round's accepted rows costs dim chunk flushes instead of dim·rows
// item pushes. Rank-equivalent to row-wise PushRow within each stream's ε.
//
//trimlint:allow deadexport the row workers are to batch their kept rows through it (ROADMAP, the row game's vector path)
func (v *Vector) PushRows(rows [][]float64) error {
	for _, row := range rows {
		if len(row) != len(v.dims) {
			return fmt.Errorf("summary: row dim %d, vector dim %d", len(row), len(v.dims))
		}
	}
	sc := batchPool.Get().(*batchScratch)
	col := sc.vals[:0]
	for d, st := range v.dims {
		col = col[:0]
		for _, row := range rows {
			col = append(col, row[d])
		}
		st.PushBatch(col)
	}
	sc.vals = col
	batchPool.Put(sc)
	return nil
}

// Medians writes the per-coordinate ε-approximate medians into buf (reused
// when it has the right length) and returns it.
func (v *Vector) Medians(buf []float64) []float64 {
	return v.Quantiles(buf, 0.5)
}

// Quantiles writes the per-coordinate ε-approximate q-th quantiles into buf
// (reused when it has the right length) and returns it.
func (v *Vector) Quantiles(buf []float64, q float64) []float64 {
	out := buf
	if len(out) != len(v.dims) {
		out = make([]float64, len(v.dims))
	}
	for i, st := range v.dims {
		out[i] = st.Query(q)
	}
	return out
}
