package rowstore

import (
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/wire"
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
		if err := p.Bind(testData(n, 3, labeled)); err != nil {
			f.Fatal(err)
		}
		if err := appendRange(p, 0, n, 3, labeled); err != nil {
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

// FuzzPoolsAgree plays one sequence of operations on a MemPool and on a
// SpillPool whose segments hold 3 rows, so appends rotate segment files
// and truncates cut through them, both bound to one 7-row dataset, labeled
// or not. After every operation the two must report the same Len and page
// out the same rows, bit for bit, with the same labels. The operations
// come from ops, one leading byte each (mod 3):
//
//   - append: a count byte c, then min(c%9, what is left) row bytes b —
//     b < 160 is a reference to dataset row b%7, anything else a poison
//     row whose coordinates and label derive from b (255: NaN payloads)
//   - truncate to the next byte mod Len+2, often a cut inside a poison run
//   - page [lo, hi) from the next two bytes, past the end or inverted alike
//
// Run longer with
// `go test ./internal/rowstore -run=NONE -fuzz=FuzzPoolsAgree -fuzztime=15s`.
func FuzzPoolsAgree(f *testing.F) {
	f.Add(true, []byte{0, 6, 1, 200, 2, 210, 220, 3, 1, 4, 2, 0, 9})
	f.Add(false, []byte{0, 8, 170, 171, 0, 1, 172, 255, 6, 5, 0, 3, 4, 250, 251, 1, 3, 2, 1, 1})
	f.Add(true, []byte{0, 4, 255, 254, 0, 6, 1, 2, 0, 2, 1, 2, 2, 0, 20})
	f.Fuzz(func(t *testing.T, labeled bool, ops []byte) {
		const n, dim = 7, 3
		mem := NewMem()
		spill, err := OpenSpill(t.TempDir(), SpillConfig{MaxSegmentRows: 3})
		if err != nil {
			t.Fatal(err)
		}
		defer spill.Close()
		pools := []Pool{mem, spill}
		for _, p := range pools {
			bindTest(t, p, n, dim, labeled)
		}
		next := func() byte {
			if len(ops) == 0 {
				return 0
			}
			b := ops[0]
			ops = ops[1:]
			return b
		}
		for step := 0; len(ops) > 0; step++ {
			switch next() % 3 {
			case 0:
				refs, poison, labels := poolOps(next(), &ops, n, dim, labeled)
				for _, p := range pools {
					if err := p.Append(refs, poison, labels); err != nil {
						t.Fatalf("step %d: append %v: %v", step, refs, err)
					}
				}
			case 1:
				cut := int(next()) % (mem.Len() + 2)
				for _, p := range pools {
					if err := p.Truncate(cut); err != nil {
						t.Fatalf("step %d: truncate to %d: %v", step, cut, err)
					}
				}
			case 2:
				lo, hi := int(next()), int(next())
				samePages(t, step, mem, spill, lo, hi)
			}
			if mem.Len() != spill.Len() {
				t.Fatalf("step %d: MemPool holds %d rows, SpillPool %d", step, mem.Len(), spill.Len())
			}
			samePages(t, step, mem, spill, 0, mem.Len())
		}
	})
}

// poolOps decodes one fuzzed append: up to c%9 row bytes from ops (see
// FuzzPoolsAgree) into references and a block of poison rows with labels.
func poolOps(c byte, ops *[]byte, n, dim int, labeled bool) ([]int32, wire.Matrix, []uint32) {
	k := min(int(c%9), len(*ops))
	rows := (*ops)[:k]
	*ops = (*ops)[k:]
	poison := wire.Matrix{Dim: dim}
	var labels []uint32
	refs := make([]int32, len(rows))
	for i, b := range rows {
		if b < 160 {
			refs[i] = int32(int(b) % n)
			continue
		}
		refs[i] = int32(-1 - poison.Len())
		for j := range dim {
			bits := 0x3ff0_0000_0000_0000 | uint64(b)<<8 | uint64(j)
			if b == 255 {
				bits = 0x7ff8_0000_0000_0000 | uint64(j+1)
			}
			poison.Data = append(poison.Data, math.Float64frombits(bits))
		}
		if labeled {
			labels = append(labels, uint32(b)%5)
		}
	}
	return refs, poison, labels
}

// samePages fails unless both pools page [lo, hi) alike: both refuse it, or
// both return the same rows bit for bit and the same labels.
func samePages(t *testing.T, step int, a, b Pool, lo, hi int) {
	t.Helper()
	ra, la, errA := a.Page(lo, hi)
	rb, lb, errB := b.Page(lo, hi)
	if (errA == nil) != (errB == nil) {
		t.Fatalf("step %d: page [%d,%d): MemPool error %v, SpillPool error %v", step, lo, hi, errA, errB)
	}
	if len(ra) != len(rb) || !slices.Equal(la, lb) || (la == nil) != (lb == nil) {
		t.Fatalf("step %d: page [%d,%d): MemPool %d rows labels %v, SpillPool %d rows labels %v", step, lo, hi, len(ra), la, len(rb), lb)
	}
	for i := range ra {
		if !slices.EqualFunc(ra[i], rb[i], func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }) {
			t.Fatalf("step %d: page [%d,%d) row %d: MemPool %v, SpillPool %v", step, lo, hi, i, ra[i], rb[i])
		}
	}
}
