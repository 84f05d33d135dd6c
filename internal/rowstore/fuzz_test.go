package rowstore

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"
)

// FuzzOpenSpill recovers a spill directory whose segment files hold
// arbitrary bytes — what a crash, a torn write or a foreign file leaves
// under `trimlab worker -spill-dir`. OpenSpill must never panic, and a pool
// it accepts must page back exactly Len() rows of its dimension, with one
// label per row when labeled. The second segment is written only when
// non-empty. Run longer with
// `go test ./internal/rowstore -run=NONE -fuzz=FuzzOpenSpill -fuzztime=15s`.
func FuzzOpenSpill(f *testing.F) {
	// Seeds: the segments of real pools (labeled, two segments; unlabeled,
	// one), a torn tail, and headers with a zero, huge or mismatched dim.
	segments := func(labeled bool, n, maxRows int) [][]byte {
		dir := f.TempDir()
		p, err := OpenSpill(dir, SpillConfig{MaxSegmentRows: maxRows})
		if err != nil {
			f.Fatal(err)
		}
		rows, labels := genRows(n, 3, 0)
		if !labeled {
			labels = nil
		}
		if err := p.Append(rows, labels); err != nil {
			f.Fatal(err)
		}
		p.Close()
		paths, err := filepath.Glob(filepath.Join(dir, "seg-*.rows"))
		if err != nil {
			f.Fatal(err)
		}
		var out [][]byte
		for _, path := range paths {
			b, err := os.ReadFile(path)
			if err != nil {
				f.Fatal(err)
			}
			out = append(out, b)
		}
		return out
	}
	two := segments(true, 6, 4)
	f.Add(two[0], two[1])
	one := segments(false, 3, 4)
	f.Add(one[0], []byte(nil))
	f.Add(one[0][:len(one[0])-5], []byte(nil)) // torn last record
	f.Add(two[0], one[0])                      // labeled then unlabeled
	header := func(labeled byte, dim uint32) []byte {
		h := append([]byte(spillMagic), spillVersion, labeled, 0, 0, 0, 0)
		binary.LittleEndian.PutUint32(h[6:], dim)
		return h
	}
	f.Add(header(0, 0), []byte(nil))
	f.Add(append(header(1, 1<<31), make([]byte, 64)...), []byte(nil))
	f.Add(header(0, 3), header(0, 4))
	f.Add([]byte("TRS"), []byte(nil))

	f.Fuzz(func(t *testing.T, seg0, seg1 []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "seg-000000.rows"), seg0, 0o644); err != nil {
			t.Fatal(err)
		}
		if len(seg1) > 0 {
			if err := os.WriteFile(filepath.Join(dir, "seg-000001.rows"), seg1, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		p, err := OpenSpill(dir, SpillConfig{MaxSegmentRows: 4})
		if err != nil {
			return
		}
		defer p.Close()
		rows, labels, err := p.Page(0, p.Len())
		if err != nil {
			t.Fatalf("recovered pool of %d rows: page: %v", p.Len(), err)
		}
		if len(rows) != p.Len() {
			t.Fatalf("recovered pool pages %d rows, Len() = %d", len(rows), p.Len())
		}
		// An accepted pool took its shape from the first segment's header.
		dim, labeled := int(binary.LittleEndian.Uint32(seg0[6:10])), seg0[5] != 0
		for i, row := range rows {
			if len(row) != dim {
				t.Fatalf("row %d has %d coordinates, pool dim %d", i, len(row), dim)
			}
		}
		if labeled && len(labels) != len(rows) || !labeled && labels != nil {
			t.Fatalf("%d labels for %d rows (labeled %v)", len(labels), len(rows), labeled)
		}
	})
}
