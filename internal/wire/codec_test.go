package wire

import (
	"hash/fnv"
	"testing"
)

// goldenTables are the encoded round-trip tables, one message list per
// payload kind, each in table order.
func goldenTables(t testing.TB) map[string][][]byte {
	tables := map[string][][]byte{}
	for _, d := range roundTripDirectives() {
		tables["directive"] = append(tables["directive"], EncodeDirective(nil, d))
	}
	for _, rep := range roundTripReports(t) {
		tables["report"] = append(tables["report"], EncodeReport(nil, rep))
	}
	for _, s := range roundTripSummaries(t) {
		tables["summary"] = append(tables["summary"], EncodeSummary(nil, s))
	}
	for _, v := range roundTripVectors(t) {
		tables["vector"] = append(tables["vector"], EncodeVector(nil, v))
	}
	for _, s := range roundTripSnapshots(t) {
		tables["snapshot"] = append(tables["snapshot"], EncodeSnapshot(nil, s))
	}
	return tables
}

// TestEncodingGolden pins the bytes of format 10: the FNV-64a digest of each
// round-trip table's messages, concatenated in table order, as the
// field-at-a-time codec wrote them before the block codecs replaced it. The
// wirever analyzer fingerprints the declared message structs only, so an
// encoder that changed bytes without changing a struct would pass it — and
// silently split a cluster whose processes run different builds. A digest
// may change only together with Version.
func TestEncodingGolden(t *testing.T) {
	want := map[string]uint64{
		"directive": 0x3f21c6febe3a935e,
		"report":    0xa9e14b65b76c89b7,
		"summary":   0x34c4f6b4246d8596,
		"vector":    0x4bff6813da8db706,
		"snapshot":  0x3b0454b79e820b20,
	}
	tables := goldenTables(t)
	if len(tables) != len(want) {
		t.Fatalf("%d golden tables, %d digests", len(tables), len(want))
	}
	for name, msgs := range tables {
		h := fnv.New64a()
		size := 0
		for _, m := range msgs {
			h.Write(m)
			size += len(m)
		}
		if got := h.Sum64(); got != want[name] {
			t.Errorf("%s table (%d messages, %d B): digest %#016x, want %#016x", name, len(msgs), size, got, want[name])
		}
	}
}

// Decoding allocates per block, never per element: a configure carrying a
// 1,000×18 dataset and a 250k pool, and a 1,000-row kept-row page, decode
// in as many allocations as their 10-row, 100-value counterparts, and in a
// handful overall (the message struct and one backing array per block).
func TestDecodeAllocsPerBlock(t *testing.T) {
	const maxAllocs = 8
	build := func(nRows, nPool int) (conf, page []byte) {
		rows := make([][]float64, nRows)
		labels := make([]int, nRows)
		for i := range rows {
			rows[i] = make([]float64, 18)
			for j := range rows[i] {
				rows[i][j] = float64(i*18+j) / 7
			}
			labels[i] = i % 4
		}
		pool := make([]float64, nPool)
		for i := range pool {
			pool[i] = float64(i) * 0.5
		}
		conf = EncodeDirective(nil, &Directive{Op: OpConfigure, Epsilon: 0.01, Rows: rows, Labels: labels, Pool: pool})
		page = EncodeReport(nil, &Report{KeptRows: rows, KeptLabels: labels, PoolRows: []int{nRows}})
		return conf, page
	}
	allocs := func(conf, page []byte) (dir, rep float64) {
		dir = testing.AllocsPerRun(5, func() {
			if _, err := DecodeDirective(conf); err != nil {
				t.Fatal(err)
			}
		})
		rep = testing.AllocsPerRun(5, func() {
			if _, err := DecodeReport(page); err != nil {
				t.Fatal(err)
			}
		})
		return dir, rep
	}
	bigDir, bigRep := allocs(build(1000, 250_000))
	smallDir, smallRep := allocs(build(10, 100))
	if bigDir != smallDir || bigDir > maxAllocs {
		t.Errorf("DecodeDirective(configure): %v allocs for 1000×18 rows + 250k pool, %v for 10×18 + 100; want equal and ≤ %d",
			bigDir, smallDir, maxAllocs)
	}
	if bigRep != smallRep || bigRep > maxAllocs {
		t.Errorf("DecodeReport(kept-row page): %v allocs for 1000×18 rows, %v for 10×18; want equal and ≤ %d",
			bigRep, smallRep, maxAllocs)
	}
}
