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
// A pool keeps the rows it is given: the caller hands each appended row
// over and must not modify it afterwards. MemPool stores the very slices
// (a kept row costs its slice header, not a copy of its coordinates), and
// SpillPool writes them out, so a worker can append rows that alias its
// dataset without paying for them twice.
package rowstore

import "fmt"

// Pool stores one shard's kept rows in append order.
//
// Labels ride along row-for-row when the dataset is labeled; an unlabeled
// pool passes nil labels throughout. The first Append fixes the pool's
// dimension and labeledness; later appends must agree.
type Pool interface {
	// Append adds rows (and, for labeled datasets, their labels — one per
	// row) to the end of the pool. The pool keeps the rows it is given:
	// the caller must not modify a row's coordinates afterwards, though it
	// may reuse the rows and labels slices themselves.
	Append(rows [][]float64, labels []int) error

	// Len reports the number of rows currently stored.
	Len() int

	// Page returns rows [lo, hi) in append order, with labels when the
	// pool is labeled (nil otherwise). hi is clamped to Len. The rows may
	// be the very slices Append kept, so the caller must not modify them.
	Page(lo, hi int) ([][]float64, []int, error)

	// Truncate discards every row at index n and beyond, rolling the pool
	// back to exactly n rows. Resume uses it to drop rows appended after
	// the snapshot being restored. A no-op when n >= Len.
	Truncate(n int) error

	// Close releases any backing resources. The pool is unusable after.
	Close() error
}

// MemPool is the in-memory Pool: plain slices, used by loopback clusters
// and anywhere durability across process restarts is not needed. It holds
// the appended row slices themselves, never copies of them.
type MemPool struct {
	rows    [][]float64
	labels  []int
	dim     int
	labeled bool
	sealed  bool // dim/labeledness fixed by the first append
}

// NewMem returns an empty in-memory pool.
func NewMem() *MemPool { return &MemPool{} }

func (p *MemPool) seal(dim int, labeled bool) error {
	if !p.sealed {
		p.dim, p.labeled, p.sealed = dim, labeled, true
		return nil
	}
	if dim != p.dim {
		return fmt.Errorf("rowstore: append dim %d, pool dim %d", dim, p.dim)
	}
	if labeled != p.labeled {
		return fmt.Errorf("rowstore: labeled mismatch (pool labeled=%v)", p.labeled)
	}
	return nil
}

// Append implements Pool. Every row's dimension is checked before any row
// is kept.
func (p *MemPool) Append(rows [][]float64, labels []int) error {
	if len(rows) == 0 {
		return nil
	}
	if labels != nil && len(labels) != len(rows) {
		return fmt.Errorf("rowstore: %d rows, %d labels", len(rows), len(labels))
	}
	if err := p.seal(len(rows[0]), labels != nil); err != nil {
		return err
	}
	for _, r := range rows {
		if len(r) != p.dim {
			return fmt.Errorf("rowstore: ragged row (dim %d, pool dim %d)", len(r), p.dim)
		}
	}
	p.rows = append(p.rows, rows...)
	p.labels = append(p.labels, labels...)
	return nil
}

// Len implements Pool.
func (p *MemPool) Len() int { return len(p.rows) }

// Page implements Pool.
func (p *MemPool) Page(lo, hi int) ([][]float64, []int, error) {
	if lo < 0 || lo > hi {
		return nil, nil, fmt.Errorf("rowstore: bad page [%d,%d)", lo, hi)
	}
	if hi > len(p.rows) {
		hi = len(p.rows)
	}
	if lo >= hi {
		return nil, nil, nil
	}
	rows := make([][]float64, hi-lo)
	copy(rows, p.rows[lo:hi])
	var labels []int
	if p.labeled {
		labels = make([]int, hi-lo)
		copy(labels, p.labels[lo:hi])
	}
	return rows, labels, nil
}

// Truncate implements Pool.
func (p *MemPool) Truncate(n int) error {
	if n < 0 {
		return fmt.Errorf("rowstore: truncate to %d", n)
	}
	if n >= len(p.rows) {
		return nil
	}
	p.rows = p.rows[:n]
	if p.labeled {
		p.labels = p.labels[:n]
	}
	return nil
}

// Close implements Pool.
func (p *MemPool) Close() error {
	p.rows, p.labels = nil, nil
	return nil
}
