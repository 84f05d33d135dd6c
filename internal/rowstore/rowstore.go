// Package rowstore is the kept-row storage layer behind the row game's
// worker-held pools (DESIGN.md §14). A Pool accumulates the rows a shard
// retains across rounds and serves them back in pages at game end
// (wire.OpFetchRows); the coordinator never holds more than one page.
//
// Two implementations share the interface: MemPool keeps everything in
// process memory (the loopback default), SpillPool appends fixed-size
// records to segment files on disk so a pool survives worker restarts —
// the piece that makes row-game `-resume` possible, since the snapshot
// stores only O(1/ε) coordinator state plus each pool's row count, and
// the rows themselves are recovered from the worker's own segments.
//
// Append order is the pool's canonical order: rows page back exactly as
// they were appended, so two runs that keep the same rows in the same
// order produce byte-identical pools — the property the record-for-record
// equality tests lean on.
//
// A pool is bound to the dataset its honest rows come from (Bind, at every
// row-game configure), and Append takes kept rows as references: an honest
// row is its index into that dataset, and only poison rows — which no
// dataset holds — arrive as coordinates. MemPool stores one int32 per kept
// row plus a flat block of the kept poison rows and their labels, and
// gathers each Page from those; SpillPool gathers each appended row and
// writes it out as a full record, so its segments stand alone.
package rowstore

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/wire"
)

// Pool stores one shard's kept rows in append order.
//
// Labels ride along row for row when the bound dataset is labeled; an
// unlabeled pool takes no poison labels and pages nil labels.
type Pool interface {
	// Bind names the dataset Append's honest references index: x with its
	// labels y, one per row, or nil when unlabeled. The pool keeps x and y
	// as given and only reads them, so the caller must not modify them
	// while the pool is bound. The first Bind fixes the pool's dimension
	// and labeledness. A later Bind — a re-configure — must name the same
	// dataset, coordinate for coordinate and label for label, wherever its
	// bytes live: the pool then reads the new copy, and the rows it kept
	// are unchanged. A different dataset is refused, since the pool's
	// indices would name other rows.
	Bind(x wire.Matrix, y []uint32) error

	// Append adds kept rows to the end of the pool, in refs order. A ref
	// r ≥ 0 is row r of the bound dataset, with its label; a ref r < 0 is
	// row −1−r of poison, labeled poisonLabels[−1−r]. poisonLabels holds
	// one label per poison row when the dataset is labeled and is empty
	// otherwise. The pool copies the poison rows it keeps, so the caller
	// may reuse poison afterwards. Every ref is checked before any row is
	// kept.
	Append(refs []int32, poison wire.Matrix, poisonLabels []uint32) error

	// Len reports the number of rows currently stored.
	Len() int

	// Page returns rows [lo, hi) in append order, with labels when the
	// pool is labeled (nil otherwise). hi is clamped to Len. The rows may
	// be views of the bound dataset or of the pool's own storage, so the
	// caller must not modify them.
	Page(lo, hi int) ([][]float64, []int, error)

	// Truncate discards every row at index n and beyond, rolling the pool
	// back to exactly n rows. Resume uses it to drop rows appended after
	// the snapshot being restored. A no-op when n >= Len.
	Truncate(n int) error

	// Close releases any backing resources. The pool is unusable after.
	Close() error
}

// binding is a pool's bound dataset and the checks on it that both pools
// share.
type binding struct {
	x       wire.Matrix // no rows until the first Bind
	y       []uint32
	dim     int
	labeled bool
	sealed  bool // dim and labeledness fixed, by a Bind or a recovered segment
}

// seal fixes the pool's shape, or checks a later shape against it.
func (b *binding) seal(dim int, labeled bool) error {
	if !b.sealed {
		b.dim, b.labeled, b.sealed = dim, labeled, true
		return nil
	}
	if dim != b.dim {
		return fmt.Errorf("dim %d, pool dim %d", dim, b.dim)
	}
	if labeled != b.labeled {
		return fmt.Errorf("labeled mismatch (pool labeled=%v)", b.labeled)
	}
	return nil
}

// bind implements Pool.Bind for both pools.
func (b *binding) bind(x wire.Matrix, y []uint32) error {
	n := x.Len()
	switch {
	case n == 0 || len(x.Data) != n*x.Dim:
		return fmt.Errorf("rowstore: bind to %d coordinates in rows of %d", len(x.Data), x.Dim)
	case n > math.MaxInt32:
		return fmt.Errorf("rowstore: bind to %d rows, more than an int32 reference names", n)
	case y != nil && len(y) != n:
		return fmt.Errorf("rowstore: bind to %d rows with %d labels", n, len(y))
	}
	if b.x.Len() > 0 && !sameDataset(b.x, b.y, x, y) {
		return fmt.Errorf("rowstore: the pool holds rows of a %d × %d dataset (labeled %v), and a different %d × %d dataset (labeled %v) would rename them",
			b.x.Len(), b.x.Dim, b.y != nil, n, x.Dim, y != nil)
	}
	if err := b.seal(x.Dim, y != nil); err != nil {
		return fmt.Errorf("rowstore: bind: %w", err)
	}
	b.x, b.y = x, y
	return nil
}

// sameDataset reports whether two datasets hold the same rows, bit for
// bit, and the same labels.
func sameDataset(x wire.Matrix, y []uint32, x2 wire.Matrix, y2 []uint32) bool {
	if x.Dim != x2.Dim || len(x.Data) != len(x2.Data) || (y == nil) != (y2 == nil) || !slices.Equal(y, y2) {
		return false
	}
	if &x.Data[0] == &x2.Data[0] {
		return true // the same message, configured again
	}
	for i, v := range x.Data {
		if math.Float64bits(v) != math.Float64bits(x2.Data[i]) {
			return false
		}
	}
	return true
}

// check validates one Append against the bound dataset: every ref names a
// row, the poison rows are the dataset's width, and a labeled pool gets one
// poison label per poison row and an unlabeled one none. It returns the
// number of poison rows the refs keep.
func (b *binding) check(refs []int32, poison wire.Matrix, poisonLabels []uint32) (int, error) {
	if b.x.Len() == 0 {
		return 0, fmt.Errorf("rowstore: append to a pool bound to no dataset")
	}
	np := poison.Len()
	if np > 0 && poison.Dim != b.dim {
		return 0, fmt.Errorf("rowstore: poison rows of dim %d, pool dim %d", poison.Dim, b.dim)
	}
	if labels := len(poisonLabels); b.labeled && labels != np || !b.labeled && labels != 0 {
		return 0, fmt.Errorf("rowstore: %d poison labels for %d poison rows (pool labeled=%v)", len(poisonLabels), np, b.labeled)
	}
	kept := 0
	for _, r := range refs {
		switch {
		case r >= 0 && int(r) < b.x.Len():
		case r < 0 && int(-1-r) < np:
			kept++
		default:
			return 0, fmt.Errorf("rowstore: ref %d names no row of a %d-row dataset or %d poison rows", r, b.x.Len(), np)
		}
	}
	return kept, nil
}

// row returns the row a checked ref names, and its label (0 when
// unlabeled).
func (b *binding) row(r int32, poison wire.Matrix, poisonLabels []uint32) ([]float64, uint32) {
	if r >= 0 {
		if b.labeled {
			return b.x.Row(int(r)), b.y[r]
		}
		return b.x.Row(int(r)), 0
	}
	k := int(-1 - r)
	if b.labeled {
		return poison.Row(k), poisonLabels[k]
	}
	return poison.Row(k), 0
}

// MemPool is the in-memory Pool, used by loopback clusters and anywhere
// durability across process restarts is not needed. It holds one int32 per
// kept row — the row's index into the bound dataset, or −1−k for row k of
// its own block of kept poison rows — so a kept honest row costs 4 B and
// a kept poison row its coordinates plus 8 B.
type MemPool struct {
	binding
	refs         []int32   // one per kept row, in append order
	poison       []float64 // kept poison rows, row-major, in append order
	poisonLabels []uint32  // one per kept poison row when labeled
}

// NewMem returns an empty in-memory pool.
func NewMem() *MemPool { return &MemPool{} }

// Bind implements Pool.
func (p *MemPool) Bind(x wire.Matrix, y []uint32) error { return p.bind(x, y) }

// Append implements Pool.
func (p *MemPool) Append(refs []int32, poison wire.Matrix, poisonLabels []uint32) error {
	kept, err := p.check(refs, poison, poisonLabels)
	if err != nil {
		return err
	}
	next := len(p.poison) / p.dim // a bound pool's dim is at least 1
	if next+kept > math.MaxInt32 {
		return fmt.Errorf("rowstore: %d kept poison rows, more than an int32 reference names", next+kept)
	}
	for _, r := range refs {
		if r >= 0 {
			p.refs = append(p.refs, r)
			continue
		}
		row, label := p.row(r, poison, poisonLabels)
		p.refs = append(p.refs, int32(-1-next))
		p.poison = append(p.poison, row...)
		if p.labeled {
			p.poisonLabels = append(p.poisonLabels, label)
		}
		next++
	}
	return nil
}

// Len implements Pool.
func (p *MemPool) Len() int { return len(p.refs) }

// Page implements Pool. Honest rows are views of the bound dataset and
// poison rows views of the pool's block, which only Truncate shortens.
func (p *MemPool) Page(lo, hi int) ([][]float64, []int, error) {
	if lo < 0 || lo > hi {
		return nil, nil, fmt.Errorf("rowstore: bad page [%d,%d)", lo, hi)
	}
	hi = min(hi, len(p.refs))
	if lo >= hi {
		return nil, nil, nil
	}
	kept := wire.Matrix{Dim: p.dim, Data: p.poison}
	rows := make([][]float64, hi-lo)
	var labels []int
	if p.labeled {
		labels = make([]int, hi-lo)
	}
	for i, r := range p.refs[lo:hi] {
		row, label := p.row(r, kept, p.poisonLabels)
		rows[i] = row
		if labels != nil {
			labels[i] = int(label)
		}
	}
	return rows, labels, nil
}

// Truncate implements Pool. The poison block it shortens is capacity-capped
// at the cut, so a later Append moves it rather than overwrite rows an
// earlier Page handed out.
func (p *MemPool) Truncate(n int) error {
	if n < 0 {
		return fmt.Errorf("rowstore: truncate to %d", n)
	}
	if n >= len(p.refs) {
		return nil
	}
	p.refs = p.refs[:n]
	keep := 0 // poison rows kept: refs name them in append order
	for i := n - 1; i >= 0; i-- {
		if r := p.refs[i]; r < 0 {
			keep = int(-r)
			break
		}
	}
	p.poison = slices.Clip(p.poison[:keep*p.dim])
	if p.labeled {
		p.poisonLabels = slices.Clip(p.poisonLabels[:keep])
	}
	return nil
}

// Close implements Pool.
func (p *MemPool) Close() error {
	*p = MemPool{}
	return nil
}
