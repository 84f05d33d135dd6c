package rowstore

import (
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// genRows builds n deterministic dim-wide rows (values encode their
// index) plus matching labels.
func genRows(n, dim, from int) ([][]float64, []int) {
	rows := make([][]float64, n)
	labels := make([]int, n)
	for i := range rows {
		row := make([]float64, dim)
		for j := range row {
			row[j] = float64((from+i)*100 + j)
		}
		rows[i] = row
		labels[i] = (from + i) % 3
	}
	return rows, labels
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
		rows, labels := genRows(10, dim, 0)
		if err := p.Append(rows, labels); err != nil {
			t.Fatal(err)
		}
		rows, labels = genRows(7, dim, 10)
		if err := p.Append(rows, labels); err != nil {
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
		rows, labels = genRows(4, dim, 6)
		if err := p.Append(rows, labels); err != nil {
			t.Fatal(err)
		}
		checkPage(t, p, 0, 10, dim, true)
	})

	t.Run("unlabeled", func(t *testing.T) {
		p := open(t)
		defer p.Close()
		rows, _ := genRows(5, 2, 0)
		if err := p.Append(rows, nil); err != nil {
			t.Fatal(err)
		}
		got, labels, err := p.Page(0, 5)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 5 || labels != nil {
			t.Fatalf("got %d rows, labels %v (want 5, nil)", len(got), labels)
		}
	})

	t.Run("shape-mismatch", func(t *testing.T) {
		p := open(t)
		defer p.Close()
		rows, labels := genRows(2, 3, 0)
		if err := p.Append(rows, labels); err != nil {
			t.Fatal(err)
		}
		bad, badL := genRows(1, 4, 2)
		if err := p.Append(bad, badL); err == nil {
			t.Fatal("dim mismatch accepted")
		}
		ok, _ := genRows(1, 3, 2)
		if err := p.Append(ok, nil); err == nil {
			t.Fatal("labeledness mismatch accepted")
		}
	})
}

func TestMemPool(t *testing.T) {
	poolCases(t, func(t *testing.T) Pool { return NewMem() })
}

// MemPool keeps the rows it is given: Page hands back the very slices
// Append was passed — no per-row copy — labeled or not, and still after a
// Truncate and a further Append.
func TestMemPoolKeepsAppendedRows(t *testing.T) {
	for _, labeled := range []bool{true, false} {
		p := NewMem()
		rows, labels := genRows(6, 3, 0)
		more, moreL := genRows(4, 3, 4)
		if !labeled {
			labels, moreL = nil, nil
		}
		if err := p.Append(rows, labels); err != nil {
			t.Fatal(err)
		}
		same := func(want [][]float64, lo int) {
			t.Helper()
			got, _, err := p.Page(lo, lo+len(want))
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if &got[i][0] != &want[i][0] {
					t.Fatalf("labeled %v: row %d pages back a copy, want the appended slice", labeled, lo+i)
				}
			}
		}
		same(rows, 0)
		if err := p.Truncate(4); err != nil {
			t.Fatal(err)
		}
		if err := p.Append(more, moreL); err != nil {
			t.Fatal(err)
		}
		same(rows[:4], 0)
		same(more, 4)
		checkPage(t, p, 0, 8, 3, labeled)
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
	rows, labels := genRows(11, 2, 0)
	if err := p.Append(rows, labels); err != nil {
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
	// Appending after reopen fills the partial tail segment first.
	more, moreL := genRows(2, 2, 11)
	if err := re.Append(more, moreL); err != nil {
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
	rows, labels := genRows(6, 3, 0)
	if err := p.Append(rows, labels); err != nil {
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
	more, moreL := genRows(3, 3, 5)
	if err := re.Append(more, moreL); err != nil {
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
	rows, labels := genRows(10, 2, 0) // segments 3+3+3+1
	if err := p.Append(rows, labels); err != nil {
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
