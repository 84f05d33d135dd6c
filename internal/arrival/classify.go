package arrival

import (
	"repro/internal/stats/summary"
	"repro/internal/wire"
)

// Segment marks one cell's slice of a held round: the cell starts at Start
// and is poison from PoisonFrom on (both indices into the held slice). A
// held round concatenates one segment per cell in cell order, each laid out
// honest-first the way every Draw returns it; the last segment runs to the
// end of the held slice.
type Segment struct {
	Start, PoisonFrom int
}

// Focus is a round's adaptive-ε focus window (wire v6): a stream keeps
// Tighten× denser rank coverage within ±Width of the percentile Pct.
// Tighten ≤ 1 is no window.
type Focus struct {
	Pct, Width float64
	Tighten    int
}

// Summarize is the stream-building step of the shard kernel, shared by
// cluster.Worker (every cell's round summary and the scalar kept stream)
// and the single-process collect.RunSharded reference (both phases), so the
// two build bit-identical streams by construction (DESIGN.md §12): a stream
// at budget eps sized for hint values, the focus window, then one
// PushBatch of values. Batch and item-wise ingestion are rank-equivalent
// but not bit-identical, which is why both engines must build here.
func Summarize(values []float64, eps float64, hint int, f Focus) (*summary.Stream, error) {
	st, err := summary.New(eps, hint)
	if err != nil {
		return nil, err
	}
	if f.Tighten > 1 {
		st.SetFocus(f.Pct, f.Width, f.Tighten)
	}
	st.PushBatch(values)
	return st, nil
}

// Keep is the classify kernel of a held round, shared by cluster.Worker and
// the single-process collect.RunSharded reference so that the two stay in
// lockstep (DESIGN.md §12). It tallies every held value as honest or poison
// by its segment, and as kept (v ≤ threshold) or trimmed — a NaN is never
// kept. It moves the kept values to the front of held, in held order, and
// returns them as held[:n]; what held[n:] then holds is unspecified.
// Classify is the held slice's last reader, so the compaction allocates
// nothing, and a caller that needs the kept values in held order (one
// Summarize, a running sum) reads them off the returned prefix.
func Keep(held []float64, segs []Segment, threshold float64) (wire.Counts, []float64) {
	var c wire.Counts
	n := 0
	for s, seg := range segs {
		end := len(held)
		if s+1 < len(segs) {
			end = segs[s+1].Start
		}
		k := n
		n = keepBelow(held, n, seg.Start, seg.PoisonFrom, threshold)
		c.HonestKept += n - k
		c.HonestTrimmed += seg.PoisonFrom - seg.Start - (n - k)
		k = n
		n = keepBelow(held, n, seg.PoisonFrom, end, threshold)
		c.PoisonKept += n - k
		c.PoisonTrimmed += end - seg.PoisonFrom - (n - k)
	}
	return c, held[:n]
}

// keepBelow moves the values of held[lo:hi] at or below threshold to
// held[n:], in order, and returns the new end of the kept prefix. n ≤ lo,
// so a write never lands on a value not yet read.
func keepBelow(held []float64, n, lo, hi int, threshold float64) int {
	for _, v := range held[lo:hi] {
		if v <= threshold {
			held[n] = v
			n++
		}
	}
	return n
}
