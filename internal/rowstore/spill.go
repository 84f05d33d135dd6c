package rowstore

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// Spill segment format: a fixed header followed by fixed-size records, so
// a crash can only ever leave a partial *record* at the tail of the last
// segment — recovery is "truncate to whole records", no scan state.
//
//	header:  magic "TRS1" | u8 version | u8 labeled | u32 dim  (10 bytes)
//	record:  dim × f64 row  [ + i64 label when labeled ]
//
// All integers little-endian. Segments are named seg-%06d.rows and filled
// to maxRows before the next one is opened; only the newest segment is
// ever open for writing, so earlier segments are immutable once rotated.
const (
	spillMagic   = "TRS1"
	spillVersion = 1
	headerSize   = 10
)

// DefaultSegmentRows is the rotation threshold when SpillConfig leaves
// MaxSegmentRows zero.
const DefaultSegmentRows = 1 << 16

// SpillConfig tunes a spill pool. The zero value is usable.
type SpillConfig struct {
	// MaxSegmentRows caps rows per segment file before rotation
	// (DefaultSegmentRows when zero).
	MaxSegmentRows int
}

// SpillPool is the file-backed Pool: kept rows append to segment files
// under a directory, survive process restarts, and roll back cleanly to a
// snapshot's row count via Truncate. OpenSpill recovers an existing
// directory — including one whose last segment was cut mid-record by a
// crash — so a re-spawned `trimlab worker -spill-dir` rejoins the game
// with its kept pool intact.
type SpillPool struct {
	dir     string
	maxRows int

	dim     int
	labeled bool
	sealed  bool

	segs   []spillSeg
	active *os.File // newest segment, open for append; nil before first write
	total  int

	recBuf []byte // reused per-record encode/decode buffer
}

type spillSeg struct {
	name string
	rows int
}

// OpenSpill opens (creating if needed) a spill pool rooted at dir. An
// existing pool is recovered: segments are scanned in name order, each is
// truncated to whole records (discarding a crash-torn tail), and the
// pool resumes appending where it left off.
func OpenSpill(dir string, cfg SpillConfig) (*SpillPool, error) {
	if cfg.MaxSegmentRows <= 0 {
		cfg.MaxSegmentRows = DefaultSegmentRows
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("rowstore: %w", err)
	}
	p := &SpillPool{dir: dir, maxRows: cfg.MaxSegmentRows}
	if err := p.recover(); err != nil {
		return nil, err
	}
	return p, nil
}

func (p *SpillPool) recover() error {
	ents, err := os.ReadDir(p.dir)
	if err != nil {
		return fmt.Errorf("rowstore: %w", err)
	}
	var names []string
	for _, e := range ents {
		var n int
		if !e.IsDir() && segIndex(e.Name(), &n) {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	for _, name := range names {
		path := filepath.Join(p.dir, name)
		f, err := os.OpenFile(path, os.O_RDWR, 0)
		if err != nil {
			return fmt.Errorf("rowstore: %w", err)
		}
		dim, labeled, rows, err := recoverSegment(f)
		if err != nil {
			f.Close()
			return fmt.Errorf("rowstore: segment %s: %w", name, err)
		}
		f.Close()
		if err := p.seal(dim, labeled); err != nil {
			return fmt.Errorf("rowstore: segment %s: %w", name, err)
		}
		p.segs = append(p.segs, spillSeg{name: name, rows: rows})
		p.total += rows
	}
	return nil
}

func segIndex(name string, n *int) bool {
	_, err := fmt.Sscanf(name, "seg-%06d.rows", n)
	return err == nil
}

// recoverSegment validates a segment header, truncates the file to whole
// records, and reports its shape. The file offset is left unspecified.
func recoverSegment(f *os.File) (dim int, labeled bool, rows int, err error) {
	var hdr [headerSize]byte
	if _, err := f.ReadAt(hdr[:], 0); err != nil {
		return 0, false, 0, fmt.Errorf("short header: %w", err)
	}
	if string(hdr[:4]) != spillMagic {
		return 0, false, 0, fmt.Errorf("bad magic %q", hdr[:4])
	}
	if hdr[4] != spillVersion {
		return 0, false, 0, fmt.Errorf("version %d, want %d", hdr[4], spillVersion)
	}
	labeled = hdr[5] != 0
	dim = int(binary.LittleEndian.Uint32(hdr[6:10]))
	if dim <= 0 {
		return 0, false, 0, fmt.Errorf("dim %d", dim)
	}
	st, err := f.Stat()
	if err != nil {
		return 0, false, 0, err
	}
	rec := recSize(dim, labeled)
	rows = int((st.Size() - headerSize) / int64(rec))
	if rows < 0 {
		rows = 0
	}
	want := int64(headerSize) + int64(rows)*int64(rec)
	if st.Size() != want {
		if err := f.Truncate(want); err != nil {
			return 0, false, 0, err
		}
	}
	return dim, labeled, rows, nil
}

func recSize(dim int, labeled bool) int {
	n := dim * 8
	if labeled {
		n += 8
	}
	return n
}

func (p *SpillPool) seal(dim int, labeled bool) error {
	if !p.sealed {
		p.dim, p.labeled, p.sealed = dim, labeled, true
		return nil
	}
	if dim != p.dim {
		return fmt.Errorf("dim %d, pool dim %d", dim, p.dim)
	}
	if labeled != p.labeled {
		return fmt.Errorf("labeled mismatch (pool labeled=%v)", p.labeled)
	}
	return nil
}

func (p *SpillPool) segPath(name string) string { return filepath.Join(p.dir, name) }

// openActive ensures the newest segment is open for appending, rotating
// to a fresh segment when the current one is full (or none exists).
func (p *SpillPool) openActive() error {
	if len(p.segs) > 0 && p.segs[len(p.segs)-1].rows < p.maxRows {
		if p.active != nil {
			return nil
		}
		f, err := os.OpenFile(p.segPath(p.segs[len(p.segs)-1].name), os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			return err
		}
		p.active = f
		return nil
	}
	if p.active != nil {
		p.active.Close()
		p.active = nil
	}
	name := fmt.Sprintf("seg-%06d.rows", len(p.segs))
	f, err := os.OpenFile(p.segPath(name), os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	var hdr [headerSize]byte
	copy(hdr[:4], spillMagic)
	hdr[4] = spillVersion
	if p.labeled {
		hdr[5] = 1
	}
	binary.LittleEndian.PutUint32(hdr[6:10], uint32(p.dim))
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return err
	}
	p.segs = append(p.segs, spillSeg{name: name})
	p.active = f
	return nil
}

// Append implements Pool.
func (p *SpillPool) Append(rows [][]float64, labels []int) error {
	if len(rows) == 0 {
		return nil
	}
	if labels != nil && len(labels) != len(rows) {
		return fmt.Errorf("rowstore: %d rows, %d labels", len(rows), len(labels))
	}
	if err := p.seal(len(rows[0]), labels != nil); err != nil {
		return fmt.Errorf("rowstore: %w", err)
	}
	rec := recSize(p.dim, p.labeled)
	if cap(p.recBuf) < rec {
		p.recBuf = make([]byte, rec)
	}
	buf := p.recBuf[:rec]
	for i, r := range rows {
		if len(r) != p.dim {
			return fmt.Errorf("rowstore: ragged row (dim %d, pool dim %d)", len(r), p.dim)
		}
		if err := p.openActive(); err != nil {
			return fmt.Errorf("rowstore: %w", err)
		}
		for j, v := range r {
			binary.LittleEndian.PutUint64(buf[j*8:], math.Float64bits(v))
		}
		if p.labeled {
			binary.LittleEndian.PutUint64(buf[p.dim*8:], uint64(int64(labels[i])))
		}
		if _, err := p.active.Write(buf); err != nil {
			return fmt.Errorf("rowstore: %w", err)
		}
		p.segs[len(p.segs)-1].rows++
		p.total++
	}
	// One flush per Append call (per classify round), not per record: the
	// OS page cache holds the tail; a torn write is healed by recovery.
	if err := p.active.Sync(); err != nil {
		return fmt.Errorf("rowstore: %w", err)
	}
	return nil
}

// Len implements Pool.
func (p *SpillPool) Len() int { return p.total }

// Page implements Pool.
func (p *SpillPool) Page(lo, hi int) ([][]float64, []int, error) {
	if lo < 0 || lo > hi {
		return nil, nil, fmt.Errorf("rowstore: bad page [%d,%d)", lo, hi)
	}
	if hi > p.total {
		hi = p.total
	}
	if lo >= hi {
		return nil, nil, nil
	}
	rows := make([][]float64, 0, hi-lo)
	var labels []int
	if p.labeled {
		labels = make([]int, 0, hi-lo)
	}
	rec := recSize(p.dim, p.labeled)
	base := 0
	for _, seg := range p.segs {
		if lo >= base+seg.rows {
			base += seg.rows
			continue
		}
		f, err := os.Open(p.segPath(seg.name))
		if err != nil {
			return nil, nil, fmt.Errorf("rowstore: %w", err)
		}
		from, to := lo-base, hi-base
		if from < 0 {
			from = 0
		}
		if to > seg.rows {
			to = seg.rows
		}
		buf := make([]byte, (to-from)*rec)
		if _, err := f.ReadAt(buf, int64(headerSize)+int64(from)*int64(rec)); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("rowstore: %w", err)
		}
		f.Close()
		for off := 0; off < len(buf); off += rec {
			row := make([]float64, p.dim)
			for j := range row {
				row[j] = math.Float64frombits(binary.LittleEndian.Uint64(buf[off+j*8:]))
			}
			rows = append(rows, row)
			if p.labeled {
				labels = append(labels, int(int64(binary.LittleEndian.Uint64(buf[off+p.dim*8:]))))
			}
		}
		base += seg.rows
		if base >= hi {
			break
		}
	}
	return rows, labels, nil
}

// Truncate implements Pool.
func (p *SpillPool) Truncate(n int) error {
	if n < 0 {
		return fmt.Errorf("rowstore: truncate to %d", n)
	}
	if n >= p.total {
		return nil
	}
	if p.active != nil {
		p.active.Close()
		p.active = nil
	}
	base := 0
	keep := 0
	rec := recSize(p.dim, p.labeled)
	for i, seg := range p.segs {
		if base+seg.rows <= n {
			base += seg.rows
			keep = i + 1
			continue
		}
		within := n - base
		if within > 0 {
			want := int64(headerSize) + int64(within)*int64(rec)
			if err := os.Truncate(p.segPath(seg.name), want); err != nil {
				return fmt.Errorf("rowstore: %w", err)
			}
			p.segs[i].rows = within
			keep = i + 1
		}
		// Delete every later segment (and this one, if cut to zero rows).
		for j := keep; j < len(p.segs); j++ {
			if err := os.Remove(p.segPath(p.segs[j].name)); err != nil {
				return fmt.Errorf("rowstore: %w", err)
			}
		}
		p.segs = p.segs[:keep]
		p.total = n
		return nil
	}
	return nil
}

// Close implements Pool.
func (p *SpillPool) Close() error {
	if p.active != nil {
		err := p.active.Close()
		p.active = nil
		return err
	}
	return nil
}
