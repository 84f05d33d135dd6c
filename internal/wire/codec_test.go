package wire

import (
	"hash/fnv"
	"math"
	"reflect"
	"runtime"
	"strings"
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

// TestEncodingGolden pins the bytes of format 16: the FNV-64a digest of each
// round-trip table's messages, concatenated in table order. The wirever
// analyzer fingerprints the declared message structs only, so an encoder
// that changed bytes without changing a struct would pass it — and
// silently split a cluster whose processes run different builds. A digest
// may change only together with Version. Format 16 padded the configure
// rows' bulk blocks: directive 0x348e2553a297780f → 0xa19f3fa436372e49.
// Every message carries the version byte, so the other four moved with it
// alone (report 0x775a2313f1d725ce → 0x6060282ea3b36368, summary
// 0x6e9adbb16e3dee4d → 0x904df8d9c6adedf4, vector 0xe3d8d4655bbe7c8b →
// 0x42bfef964ec6c587, snapshot 0x8b865a6888a53c3c → 0x928f81601eab7522);
// their version-masked bytes are those of format 15.
func TestEncodingGolden(t *testing.T) {
	want := map[string]uint64{
		"directive": 0xa19f3fa436372e49,
		"report":    0x6060282ea3b36368,
		"summary":   0x904df8d9c6adedf4,
		"vector":    0x42bfef964ec6c587,
		"snapshot":  0x928f81601eab7522,
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
// stamps Leaves on every reply, snapshot under format 15, whose stream
// states carry no weight flag or weight buffer, and directive under format
// 16, which pads the configure rows' reference, pool and dataset
// (0xb65932ff77b297d6 → 0xfe14913936a73782).
func TestEntryFreeBytesUnchanged(t *testing.T) {
	want := map[string]uint64{
		"directive": 0xfe14913936a73782,
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

// Padding never reaches round traffic: the round-trip table's per-round
// directives (generate, classify+generate, classify, fetch-rows, pool-trim)
// keep their format-15 bytes, version byte aside. The digest is FNV-64a
// over those messages in table order with byte 2 masked, recorded under
// format 15.
func TestRoundDirectiveBytesUnchanged(t *testing.T) {
	const want = 0xa9676ba99573c1c5
	h := fnv.New64a()
	n := 0
	for _, d := range roundTripDirectives() {
		switch d.Op {
		case OpConfigure, OpStop, OpHeartbeat, OpHello, OpJoin:
			continue
		case OpGenerate, OpClassifyGenerate, OpClassify, OpFetchRows, OpPoolTrim:
		}
		m := EncodeDirective(nil, d)
		m[2] = 0
		h.Write(m)
		n++
	}
	if got := h.Sum64(); got != want {
		t.Errorf("%d per-round directives: digest %#016x, want %#016x", n, got, uint64(want))
	}
}

// viewConfigure is a configure carrying all three padded blocks — a
// dataset, a pool and a reference — whose values include NaN payloads of
// both signs and kinds, −0 and ±Inf, so a decode that rounds a value
// through an arithmetic path shows.
func viewConfigure() *Directive {
	quiet := math.Float64frombits(0x7ff8_0000_0000_0001)
	signaling := math.Float64frombits(0xfff0_0000_dead_beef)
	negZero := math.Copysign(0, -1)
	return &Directive{
		Op: OpConfigure, Epsilon: 0.01,
		Rows:      [][]float64{{1, math.Inf(-1), quiet}, {negZero, 5, math.Inf(1)}, {signaling, 0.25, -3}},
		Labels:    []int{0, 1, 1},
		Clusters:  2,
		Pool:      []float64{signaling, negZero, 1, math.Inf(1)},
		RefSorted: []float64{math.Inf(-1), negZero, 2, quiet, 7},
	}
}

// blockNames name a configure's padded blocks in configureBlocks order.
var blockNames = [3]string{"dataset", "pool", "reference"}

// configureBlocks are a configure's padded blocks, the dataset flattened
// row-major.
func configureBlocks(d *Directive) [3][]float64 {
	var rows []float64
	for _, r := range d.Rows {
		rows = append(rows, r...)
	}
	return [3][]float64{rows, d.Pool, d.RefSorted}
}

// within reports whether the first element of v lies inside msg.
func within(v []float64, msg []byte) bool {
	p, lo := reflect.ValueOf(v).Pointer(), reflect.ValueOf(msg).Pointer()
	return len(v) > 0 && p >= lo && p < lo+uintptr(len(msg))
}

// A configure decodes its padded blocks as views of the message when the
// message lies 8-byte aligned — a fresh EncodeDirective(nil, …) does — and
// by copying when the same bytes sit at an odd offset. Both decodes hold
// the encoded values bit for bit, and every block and dataset row is
// capacity-capped at its length, so an append can never write into the
// message.
func TestConfigureBlocksDecodeAsViews(t *testing.T) {
	d := viewConfigure()
	msg := EncodeDirective(nil, d)
	odd := make([]byte, len(msg)+1)[1:]
	copy(odd, msg)
	for _, c := range []struct {
		name string
		msg  []byte
		view bool
	}{{"aligned", msg, littleEndian}, {"odd offset", odd, false}} {
		got, err := DecodeDirective(c.msg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for i, row := range got.Rows {
			if cap(row) != len(row) {
				t.Errorf("%s: dataset row %d has capacity %d, length %d", c.name, i, cap(row), len(row))
			}
		}
		if cap(got.Pool) != len(got.Pool) || cap(got.RefSorted) != len(got.RefSorted) {
			t.Errorf("%s: pool capacity %d (length %d), reference capacity %d (length %d)",
				c.name, cap(got.Pool), len(got.Pool), cap(got.RefSorted), len(got.RefSorted))
		}
		gotBlocks := configureBlocks(got)
		for b, want := range configureBlocks(d) {
			name, g := blockNames[b], gotBlocks[b]
			if len(g) != len(want) {
				t.Fatalf("%s: %s holds %d values, want %d", c.name, name, len(g), len(want))
			}
			for i := range want {
				if math.Float64bits(g[i]) != math.Float64bits(want[i]) {
					t.Errorf("%s: %s[%d] = %#016x, want %#016x", c.name, name, i, math.Float64bits(g[i]), math.Float64bits(want[i]))
				}
			}
		}
		for b, v := range [3][]float64{got.Rows[0], got.Pool, got.RefSorted} {
			if in := within(v, c.msg); in != c.view {
				t.Errorf("%s: %s inside the message = %v, want %v", c.name, blockNames[b], in, c.view)
			}
		}
		if !reflect.DeepEqual(got.Labels, d.Labels) || got.Clusters != d.Clusters {
			t.Errorf("%s: labels %v clusters %d, want %v %d", c.name, got.Labels, got.Clusters, d.Labels, d.Clusters)
		}
	}
}

// A pad is zero bytes within the payload. The row prefix of a configure
// ends 73 bytes in (the 4-byte header, 61 bytes of fixed fields, the row
// count and dim), so its pad is bytes 73–79; without a dataset the pool's
// prefix ends at 81 (an 8-byte empty matrix, the empty center's and the
// pool's counts), so its pad is bytes 81–87. A non-zero byte in either is
// refused. (A message that ends inside a pad is one of the prefixes
// TestDecodeRejectsTruncation refuses.)
func TestDecodeRejectsBadPad(t *testing.T) {
	for _, c := range []struct {
		name   string
		d      *Directive
		lo, hi int
	}{
		{"dataset", &Directive{Op: OpConfigure, Rows: [][]float64{{1, 2}}}, 73, 80},
		{"pool", &Directive{Op: OpConfigure, Pool: []float64{1, 2}, MechKind: 1, MechEps: 1}, 81, 88},
	} {
		msg := EncodeDirective(nil, c.d)
		for i := c.lo; i < c.hi; i++ {
			if msg[i] != 0 {
				t.Fatalf("%s: byte %d of the pad is %#02x", c.name, i, msg[i])
			}
			bad := append([]byte(nil), msg...)
			bad[i] = 0x80
			if _, err := DecodeDirective(bad); err == nil || !strings.Contains(err.Error(), "pad byte") {
				t.Errorf("%s: pad byte %d set: error %v, want a pad refusal", c.name, i, err)
			}
		}
		if _, err := DecodeDirective(msg); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
	}
}

// Decoding allocates per block, never per element: a configure carrying a
// 1,000×18 dataset and a 250k pool, and a 1,000-row kept-row page, decode
// in as many allocations as their 10-row, 100-value counterparts, and in a
// handful overall (the message struct and one backing array per block).
// An aligned configure allocates no element at all: its dataset and pool
// are views of the message, so its bytes are the struct, the labels and
// one slice header per row — O(rows), not O(pool).
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
	if !littleEndian {
		t.Skip("a big-endian host copies every padded block")
	}
	const nRows, runs = 1000, 5
	conf, _ := build(nRows, 250_000)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		if _, err := DecodeDirective(conf); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	// A row costs its 24 B slice header and its 8 B label; the bound leaves
	// room for size-class rounding and the struct.
	if per, bound := (after.TotalAlloc-before.TotalAlloc)/runs, uint64(48*nRows+1024); per > bound {
		t.Errorf("DecodeDirective(configure): %d B allocated per decode of 1000×18 rows + 250k pool, want ≤ %d", per, bound)
	}
}
