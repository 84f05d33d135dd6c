package wire

import (
	"hash/fnv"
	"testing"

	"repro/internal/stats/summary"
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

// TestEncodingGolden pins the bytes of format 15: the FNV-64a digest of each
// round-trip table's messages, concatenated in table order. The wirever
// analyzer fingerprints the declared message structs only, so an encoder
// that changed bytes without changing a struct would pass it — and
// silently split a cluster whose processes run different builds. A digest
// may change only together with Version.
func TestEncodingGolden(t *testing.T) {
	want := map[string]uint64{
		"directive": 0x348e2553a297780f,
		"report":    0x775a2313f1d725ce,
		"summary":   0x6e9adbb16e3dee4d,
		"vector":    0xe3d8d4655bbe7c8b,
		"snapshot":  0x8b865a6888a53c3c,
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

// entryFreeTables are messages of every kind that carry no summary entry:
// the directive table's rows without a scale summary, reports whose
// summaries and vectors are absent, nil and empty summaries, an empty
// vector, and snapshots whose stream states hold only raw buffers.
func entryFreeTables(t testing.TB) map[string][][]byte {
	tables := map[string][][]byte{}
	for _, d := range roundTripDirectives() {
		if d.Gen == nil || d.Gen.Scale == nil {
			tables["directive"] = append(tables["directive"], EncodeDirective(nil, d))
		}
	}
	for _, rep := range []*Report{
		{Leaves: 1},
		{Round: 3, Worker: 2, Epoch: 4, Configured: true, Epsilon: 0.01, Leaves: 1},
		{
			Round: 9, Worker: 1, Epsilon: 0.005, Leaves: 1,
			Counts:    Counts{HonestKept: 10, HonestTrimmed: 2, PoisonKept: 1, PoisonTrimmed: 4},
			KeptCount: 11, KeptSum: -9.5,
		},
		{Round: 12, Worker: 1, Epsilon: 0.01, Leaves: 1, PctSums: []float64{1.25, 1.75, 2.5}, InputSum: -1.25},
		{
			Round: 11, Worker: 2, Epoch: 3, Trace: 0x9e3779b97f4a7c15, Leaves: 1,
			GenerateNanos: 1_250_000, SummarizeNanos: 640_000, ClassifyNanos: 87_500,
		},
		{Round: 13, Leaves: 3, Height: 2, LostLeaves: []int{1, 3}, MergeNanos: []int64{40_000, 125_000}},
		{KeptRows: [][]float64{{1, 2}, {3, 4}, {5, 6}}, KeptLabels: []int{0, 2, 1}, PoolRows: []int{3, 0}, Leaves: 2},
	} {
		tables["report"] = append(tables["report"], EncodeReport(nil, rep))
	}
	tables["summary"] = [][]byte{EncodeSummary(nil, nil), EncodeSummary(nil, &summary.Summary{})}
	for _, v := range roundTripVectors(t) {
		if v.Count() == 0 {
			tables["vector"] = append(tables["vector"], EncodeVector(nil, v))
		}
	}
	// 40 pushes stay in a stream's raw buffer: no level, so no entry.
	buffered := func() *summary.StreamState {
		st := testStreamState(t, 40)
		if len(st.Levels) != 0 {
			t.Fatalf("40-push stream state holds %d levels", len(st.Levels))
		}
		return st
	}
	scalar := testSnapshot(t)
	scalar.Received, scalar.Kept = buffered(), nil
	rows := testRowsSnapshot(t)
	rows.Received, rows.Kept = nil, buffered()
	rows.VecState = []*summary.StreamState{buffered(), nil}
	tables["snapshot"] = [][]byte{EncodeSnapshot(nil, scalar), EncodeSnapshot(nil, rows)}
	return tables
}

// TestEntryFreeBytesUnchanged pins the messages without summary entries
// apart from the summary-block codec: a codec change that moves no field
// must leave them byte for byte, version byte aside. The digests are
// FNV-64a over each kind's entry-free messages in table order, with byte 2
// masked. The summary and vector digests date from format 10; report was
// re-recorded under format 13, which retired the report's Vec slot and
// stamps Leaves on every reply, directive under format 14, whose scalar
// configure row ships its reference without a pool, and snapshot under
// format 15, whose stream states carry no weight flag or weight buffer.
func TestEntryFreeBytesUnchanged(t *testing.T) {
	want := map[string]uint64{
		"directive": 0xb65932ff77b297d6,
		"report":    0x24313eb8af09da67,
		"summary":   0x1ca9375c652f1175,
		"vector":    0xa651683bace37860,
		"snapshot":  0x8167f372b5d8b7f8,
	}
	tables := entryFreeTables(t)
	if len(tables) != len(want) {
		t.Fatalf("%d entry-free tables, %d digests", len(tables), len(want))
	}
	for name, msgs := range tables {
		h := fnv.New64a()
		for _, m := range msgs {
			if m[2] != Version {
				t.Fatalf("%s message carries version %d, want %d", name, m[2], Version)
			}
			masked := append([]byte(nil), m...)
			masked[2] = 0
			h.Write(masked)
		}
		if got := h.Sum64(); got != want[name] {
			t.Errorf("%s entry-free table (%d messages): digest %#016x, want %#016x", name, len(msgs), got, want[name])
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
		page = EncodeReport(nil, &Report{KeptRows: rows, KeptLabels: labels, PoolRows: []int{nRows}, Leaves: 1})
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
