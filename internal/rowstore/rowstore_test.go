package rowstore

import (
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/wire"
)

// testData is the dataset the test pools bind to: n rows of dim
// coordinates whose values encode their index (row i holds i·100+j at
// coordinate j), labeled i%3, or unlabeled.
func testData(n, dim int, labeled bool) (wire.Matrix, []uint32) {
	x := wire.Matrix{Dim: dim, Data: make([]float64, n*dim)}
	var y []uint32
	if labeled {
		y = make([]uint32, n)
	}
	for i := range n {
		for j := range dim {
			x.Data[i*dim+j] = float64(i*100 + j)
		}
		if labeled {
			y[i] = uint32(i % 3)
		}
	}
	return x, y
}

// appendRange appends pool rows from … from+n−1, each equal to the test
// dataset's row of the same index (checkPage's expectation): every third
// row arrives as a poison row carrying that row's coordinates and label,
// the rest as references to the bound dataset, so a page reads the same
// either way and truncates cut through poison runs as well as references.
func appendRange(p Pool, from, n, dim int, labeled bool) error {
	x, y := testData(from+n, dim, labeled)
	poison := wire.Matrix{Dim: dim}
	var poisonLabels []uint32
	refs := make([]int32, n)
	for i := range refs {
		idx := from + i
		if idx%3 != 2 {
			refs[i] = int32(idx)
			continue
		}
		refs[i] = int32(-1 - poison.Len())
		poison.Data = append(poison.Data, x.Row(idx)...)
		if labeled {
			poisonLabels = append(poisonLabels, y[idx])
		}
	}
	return p.Append(refs, poison, poisonLabels)
}

// bindTest binds p to the test dataset of rows rows.
func bindTest(t *testing.T, p Pool, rows, dim int, labeled bool) {
	t.Helper()
	if err := p.Bind(testData(rows, dim, labeled)); err != nil {
		t.Fatal(err)
	}
}

func checkPage(t *testing.T, p Pool, lo, hi, dim int, labeled bool) {
	t.Helper()
	rows, labels, err := p.Page(lo, hi)
	if err != nil {
		t.Fatalf("Page(%d,%d): %v", lo, hi, err)
	}
	if hi > p.Len() {
		hi = p.Len()
	}
	n := hi - lo
	if n < 0 {
		n = 0
	}
	if len(rows) != n {
		t.Fatalf("Page(%d,%d): %d rows, want %d", lo, hi, len(rows), n)
	}
	if labeled && len(labels) != n {
		t.Fatalf("Page(%d,%d): %d labels, want %d", lo, hi, len(labels), n)
	}
	for i, row := range rows {
		idx := lo + i
		for j, v := range row {
			if want := float64(idx*100 + j); v != want {
				t.Fatalf("row %d coord %d = %v, want %v", idx, j, v, want)
			}
		}
		if labeled && labels[i] != idx%3 {
			t.Fatalf("label %d = %d, want %d", idx, labels[i], idx%3)
		}
	}
}

// poolCases runs the shared Pool contract against both implementations.
func poolCases(t *testing.T, open func(t *testing.T) Pool) {
	t.Run("append-page-truncate", func(t *testing.T) {
		p := open(t)
		defer p.Close()
		const dim = 3
		bindTest(t, p, 64, dim, true)
		if err := appendRange(p, 0, 10, dim, true); err != nil {
			t.Fatal(err)
		}
		if err := appendRange(p, 10, 7, dim, true); err != nil {
			t.Fatal(err)
		}
		if p.Len() != 17 {
			t.Fatalf("Len = %d, want 17", p.Len())
		}
		checkPage(t, p, 0, 17, dim, true)
		checkPage(t, p, 5, 12, dim, true)
		checkPage(t, p, 15, 40, dim, true) // clamped past the end
		if err := p.Truncate(6); err != nil {
			t.Fatal(err)
		}
		if p.Len() != 6 {
			t.Fatalf("Len after truncate = %d, want 6", p.Len())
		}
		checkPage(t, p, 0, 6, dim, true)
		// Appending after a rollback continues from the cut.
		if err := appendRange(p, 6, 4, dim, true); err != nil {
			t.Fatal(err)
		}
		checkPage(t, p, 0, 10, dim, true)
	})

	t.Run("unlabeled", func(t *testing.T) {
		p := open(t)
		defer p.Close()
		bindTest(t, p, 8, 2, false)
		if err := appendRange(p, 0, 5, 2, false); err != nil {
			t.Fatal(err)
		}
		got, labels, err := p.Page(0, 5)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 5 || labels != nil {
			t.Fatalf("got %d rows, labels %v (want 5, nil)", len(got), labels)
		}
		checkPage(t, p, 0, 5, 2, false)
	})

	t.Run("shape-mismatch", func(t *testing.T) {
		p := open(t)
		defer p.Close()
		if err := appendRange(p, 0, 2, 3, true); err == nil {
			t.Fatal("append to an unbound pool accepted")
		}
		bindTest(t, p, 4, 3, true)
		if err := appendRange(p, 0, 2, 3, true); err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			name   string
			refs   []int32
			poison wire.Matrix
			labels []uint32
		}{
			{"poison dim", []int32{-1}, wire.Matrix{Dim: 4, Data: make([]float64, 4)}, []uint32{0}},
			{"poison without labels", []int32{-1}, wire.Matrix{Dim: 3, Data: make([]float64, 3)}, nil},
			{"a label short", []int32{-1, -2}, wire.Matrix{Dim: 3, Data: make([]float64, 6)}, []uint32{0}},
			{"dataset row out of range", []int32{0, 4}, wire.Matrix{}, nil},
			{"labels without poison", []int32{0}, wire.Matrix{}, []uint32{0}},
			{"poison row out of range", []int32{1, -2}, wire.Matrix{Dim: 3, Data: make([]float64, 3)}, []uint32{0}},
		} {
			if err := p.Append(c.refs, c.poison, c.labels); err == nil {
				t.Errorf("%s: append accepted", c.name)
			}
		}
		if p.Len() != 2 {
			t.Fatalf("refused appends left Len %d, want 2", p.Len())
		}
		checkPage(t, p, 0, 2, 3, true)
	})

	t.Run("rebind", func(t *testing.T) {
		p := open(t)
		defer p.Close()
		const n, dim = 6, 3
		bindTest(t, p, n, dim, true)
		if err := appendRange(p, 0, n, dim, true); err != nil {
			t.Fatal(err)
		}
		// The same dataset, at the same address or in a copy, rebinds.
		bindTest(t, p, n, dim, true)
		x, y := testData(n, dim, true)
		for _, c := range []struct {
			name string
			x    wire.Matrix
			y    []uint32
		}{
			{"dim", wire.Matrix{Dim: 2, Data: x.Data[:2*n]}, y},
			{"rows", wire.Matrix{Dim: dim, Data: x.Data[:(n-1)*dim]}, y[:n-1]},
			{"coordinate", wire.Matrix{Dim: dim, Data: append(append([]float64(nil), x.Data[:7]...), append([]float64{-1}, x.Data[8:]...)...)}, y},
			{"sign of zero", wire.Matrix{Dim: dim, Data: append([]float64{math.Copysign(0, -1)}, x.Data[1:]...)}, y},
			{"label", x, append(append([]uint32(nil), y[:n-1]...), 7)},
			{"labels dropped", x, nil},
		} {
			if err := p.Bind(c.x, c.y); err == nil || !strings.Contains(err.Error(), "pool") {
				t.Errorf("%s: rebind error %v, want a refusal naming the pool", c.name, err)
			}
		}
		checkPage(t, p, 0, n, dim, true)
	})
}

func TestMemPool(t *testing.T) {
	poolCases(t, func(t *testing.T) Pool { return NewMem() })
}

// MemPool keeps references, not rows: a kept honest row pages back as the
// bound dataset's own row — no copy — labeled or not, still after a
// Truncate and a further Append, and after a rebind to a copy of the
// dataset it pages back the copy's rows.
func TestMemPoolKeepsAppendedRows(t *testing.T) {
	const n, dim = 12, 3
	for _, labeled := range []bool{true, false} {
		p := NewMem()
		x, y := testData(n, dim, labeled)
		if err := p.Bind(x, y); err != nil {
			t.Fatal(err)
		}
		honest := []int32{0, 1, 3, 4, 6, 7}
		if err := p.Append(honest, wire.Matrix{}, nil); err != nil {
			t.Fatal(err)
		}
		same := func(x wire.Matrix, lo int, want []int32) {
			t.Helper()
			got, _, err := p.Page(lo, lo+len(want))
			if err != nil {
				t.Fatal(err)
			}
			for i, r := range want {
				if &got[i][0] != &x.Data[int(r)*dim] {
					t.Fatalf("labeled %v: pool row %d pages back a copy, want dataset row %d", labeled, lo+i, r)
				}
			}
		}
		same(x, 0, honest)
		if err := p.Truncate(4); err != nil {
			t.Fatal(err)
		}
		more := []int32{9, 10}
		if err := p.Append(more, wire.Matrix{}, nil); err != nil {
			t.Fatal(err)
		}
		same(x, 0, honest[:4])
		same(x, 4, more)
		copied := wire.Matrix{Dim: dim, Data: slices.Clone(x.Data)}
		if err := p.Bind(copied, slices.Clone(y)); err != nil {
			t.Fatal(err)
		}
		same(copied, 0, append(honest[:4:4], more...))
	}
}

func TestSpillPool(t *testing.T) {
	poolCases(t, func(t *testing.T) Pool {
		p, err := OpenSpill(t.TempDir(), SpillConfig{})
		if err != nil {
			t.Fatal(err)
		}
		return p
	})
}

// segRows lists the whole records each of a spill directory's segment
// files holds, in name order, read off the file sizes.
func segRows(t *testing.T, dir string, dim int, labeled bool) []int {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "seg-*.rows"))
	if err != nil {
		t.Fatal(err)
	}
	var rows []int
	for _, path := range paths {
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, int((st.Size()-headerSize)/int64(recSize(dim, labeled))))
	}
	return rows
}

// TestSpillSegmentsRotateAndReopen fills several segments, reopens the
// pool from disk, and checks its contents and segment files survive
// intact.
func TestSpillSegmentsRotateAndReopen(t *testing.T) {
	dir := t.TempDir()
	p, err := OpenSpill(dir, SpillConfig{MaxSegmentRows: 4})
	if err != nil {
		t.Fatal(err)
	}
	bindTest(t, p, 16, 2, true)
	if err := appendRange(p, 0, 11, 2, true); err != nil {
		t.Fatal(err)
	}
	if segs := segRows(t, dir, 2, true); !slices.Equal(segs, []int{4, 4, 3}) {
		t.Fatalf("segment fill %v, want [4 4 3]", segs)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenSpill(dir, SpillConfig{MaxSegmentRows: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != 11 {
		t.Fatalf("reopened Len = %d, want 11", re.Len())
	}
	checkPage(t, re, 0, 11, 2, true)
	// A reopened pool takes its shape from its segments, so a dataset of
	// another width or labeledness cannot bind.
	if err := re.Bind(testData(16, 3, true)); err == nil {
		t.Fatal("a 3-dim dataset bound to a recovered 2-dim pool")
	}
	if err := re.Bind(testData(16, 2, false)); err == nil {
		t.Fatal("an unlabeled dataset bound to a recovered labeled pool")
	}
	// Appending after reopen fills the partial tail segment first.
	bindTest(t, re, 16, 2, true)
	if err := appendRange(re, 11, 2, 2, true); err != nil {
		t.Fatal(err)
	}
	if segs := segRows(t, dir, 2, true); !slices.Equal(segs, []int{4, 4, 4, 1}) {
		t.Fatalf("segment fill after append %v, want [4 4 4 1]", segs)
	}
	checkPage(t, re, 0, 13, 2, true)
}

// TestSpillCrashRecovery simulates a crash that tears the last record in
// half: reopening must truncate to whole records and keep serving.
func TestSpillCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	p, err := OpenSpill(dir, SpillConfig{MaxSegmentRows: 8})
	if err != nil {
		t.Fatal(err)
	}
	bindTest(t, p, 8, 3, true)
	if err := appendRange(p, 0, 6, 3, true); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the tail: cut the last record short by 5 bytes.
	path := filepath.Join(dir, "seg-000000.rows")
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, st.Size()-5); err != nil {
		t.Fatal(err)
	}

	re, err := OpenSpill(dir, SpillConfig{MaxSegmentRows: 8})
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	defer re.Close()
	if re.Len() != 5 {
		t.Fatalf("recovered Len = %d, want 5 (torn record dropped)", re.Len())
	}
	checkPage(t, re, 0, 5, 3, true)
	// The healed pool keeps appending where the recovery cut it.
	bindTest(t, re, 8, 3, true)
	if err := appendRange(re, 5, 3, 3, true); err != nil {
		t.Fatal(err)
	}
	checkPage(t, re, 0, 8, 3, true)
}

// TestSpillTruncateDropsSegments rolls a multi-segment pool back past a
// segment boundary and checks files actually shrink/disappear.
func TestSpillTruncateDropsSegments(t *testing.T) {
	dir := t.TempDir()
	p, err := OpenSpill(dir, SpillConfig{MaxSegmentRows: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	bindTest(t, p, 10, 2, true)
	if err := appendRange(p, 0, 10, 2, true); err != nil { // segments 3+3+3+1
		t.Fatal(err)
	}
	if err := p.Truncate(4); err != nil { // mid second segment
		t.Fatal(err)
	}
	if p.Len() != 4 {
		t.Fatalf("Len after truncate = %d, want 4", p.Len())
	}
	if segs := segRows(t, dir, 2, true); !slices.Equal(segs, []int{3, 1}) {
		t.Fatalf("segment files hold %v rows after truncate, want [3 1]", segs)
	}
	checkPage(t, p, 0, 4, 2, true)
}
