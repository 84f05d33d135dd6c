package wire

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/stats"
	"repro/internal/stats/summary"
)

// randomSummary builds a summary from n draws of the named shape, compressed
// to roughly b entries when b > 0 — covering the states a summary actually
// crosses the wire in (fresh, merged, compressed).
func randomSummary(t testing.TB, rng *rand.Rand, shape string, n, b int) *summary.Summary {
	t.Helper()
	values := make([]float64, n)
	for i := range values {
		switch shape {
		case "uniform":
			values[i] = rng.Float64()
		case "heavy":
			// Log-normal-ish heavy tail: occasional values orders of
			// magnitude above the bulk.
			values[i] = math.Exp(3 * rng.NormFloat64())
		case "duplicate":
			// Few distinct values, so entries carry weight > 1.
			values[i] = float64(rng.Intn(7))
		default:
			t.Fatalf("unknown shape %q", shape)
		}
	}
	s := summary.FromUnsorted(values)
	if b > 0 {
		s.Compress(b)
	}
	return s
}

// sameEntries compares two summaries' entries bit for bit (== would let a
// −0 stand for a +0).
func sameEntries(a, b *summary.Summary) bool {
	var ea, eb []summary.Entry
	if a != nil {
		ea = a.Entries()
	}
	if b != nil {
		eb = b.Entries()
	}
	if len(ea) != len(eb) {
		return false
	}
	for i := range ea {
		x, y := ea[i], eb[i]
		for _, f := range [][2]float64{{x.Value, y.Value}, {x.Weight, y.Weight}, {x.MinRank, y.MinRank}, {x.MaxRank, y.MaxRank}} {
			if math.Float64bits(f[0]) != math.Float64bits(f[1]) {
				return false
			}
		}
	}
	return true
}

// unitSummaries are random unit-weight summaries across distribution
// shapes and compression levels, 20 per shape.
func unitSummaries(t testing.TB) []*summary.Summary {
	rng := rand.New(rand.NewSource(1))
	var out []*summary.Summary
	for _, shape := range []string{"uniform", "heavy", "duplicate"} {
		for trial := 0; trial < 20; trial++ {
			n := 1 + rng.Intn(2000)
			b := 0
			if trial%2 == 1 {
				b = 8 + rng.Intn(64)
			}
			out = append(out, randomSummary(t, rng, shape, n, b))
		}
	}
	return out
}

// fromEntries is summary.FromEntries for entries a test knows are valid.
func fromEntries(t testing.TB, entries ...summary.Entry) *summary.Summary {
	t.Helper()
	s, err := summary.FromEntries(entries)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// fractionalSummary is the exact summary of n normal draws, each with a
// fractional weight in [lo, lo+span), built through FromEntries — the ranks
// only a peer's float-form block carries.
func fractionalSummary(t testing.TB, rng *rand.Rand, n int, lo, span float64) *summary.Summary {
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = rng.NormFloat64()
	}
	slices.Sort(vals)
	entries := make([]summary.Entry, n)
	cum := 0.0
	for i, v := range vals {
		w := lo + span*rng.Float64()
		entries[i] = summary.Entry{Value: v, Weight: w, MinRank: cum, MaxRank: cum + w}
		cum = entries[i].MaxRank
	}
	return fromEntries(t, entries...)
}

// floatSummaries take the block's float form: fractional ranks — a raw
// 40-entry summary and a compressed merge of two 3,000-entry ones, whose
// merged rank bounds the summary package keeps consistent under
// round-off — integral ranks past 2^53, and a −0 rank, which the integer
// form would turn into +0.
func floatSummaries(t testing.TB) []*summary.Summary {
	rng := rand.New(rand.NewSource(6))
	raw := fractionalSummary(t, rng, 40, 0.25, 1)
	compressed := fractionalSummary(t, rng, 3000, 0.1, 3)
	compressed.Merge(fractionalSummary(t, rng, 3000, 0.1, 3))
	compressed.Compress(100)
	const big = 1 << 54
	return []*summary.Summary{
		raw,
		compressed,
		fromEntries(t, summary.Entry{Value: 1, Weight: big, MaxRank: big}, summary.Entry{Value: 2, Weight: 1, MinRank: big, MaxRank: big + 2}),
		fromEntries(t, summary.Entry{Value: 1, Weight: 1, MinRank: math.Copysign(0, -1), MaxRank: 1}),
	}
}

// edgeSummaries are unit-weight summaries over the values whose keys sit
// at the ends of the key space and on either side of zero: −0 next to a
// positive value, ±Inf, subnormals, ±MaxFloat64, and first keys that need
// all 8 bytes.
func edgeSummaries() []*summary.Summary {
	negZero := math.Copysign(0, -1)
	const sub = 5e-324 // the smallest subnormal
	var out []*summary.Summary
	for _, vs := range [][]float64{
		{negZero, 1.5},
		{negZero, sub},
		{math.Inf(-1), -math.MaxFloat64, -1, -sub, sub, 0x1p-1022, 1, math.MaxFloat64, math.Inf(1)}, // 0x1p-1022: the smallest normal
		{math.Inf(-1)},
		{math.Inf(1)},
		{math.MaxFloat64},
		{sub},
	} {
		out = append(out, summary.FromSorted(vs))
	}
	return out
}

// roundTripSummaries are the unit-weight, float-form and edge-value
// summaries — the summary round-trip table and the summary fuzzer's seed
// corpus.
func roundTripSummaries(t testing.TB) []*summary.Summary {
	return slices.Concat(unitSummaries(t), floatSummaries(t), edgeSummaries())
}

// decodeSummaryBlock reads b as exactly one summary block, the layout every
// summary-bearing message nests.
func decodeSummaryBlock(b []byte) (*summary.Summary, error) {
	r := &reader{buf: b}
	s, err := readSummaryBlock(r)
	if err != nil {
		return nil, err
	}
	return s, r.finish()
}

// Wire round-trip identity: the summary block codec reproduces the entries
// bit-exactly in both block forms — random unit-weight summaries across
// distribution shapes and compression levels, fractional weights, and the
// edge values of the key space.
func TestSummaryRoundTrip(t *testing.T) {
	for i, s := range roundTripSummaries(t) {
		got, err := decodeSummaryBlock(appendSummaryBlock(nil, s))
		if err != nil {
			t.Fatalf("summary %d: decode: %v", i, err)
		}
		if !sameEntries(s, got) {
			t.Fatalf("summary %d: entries not identical after round trip", i)
		}
		// Bit-exact entries imply identical queries; spot-check anyway.
		for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.99, 1} {
			if a, b := s.Query(q), got.Query(q); a != b {
				t.Fatalf("summary %d: Query(%v) %v != %v", i, q, a, b)
			}
		}
	}
}

func TestSummaryRoundTripEmpty(t *testing.T) {
	got, err := decodeSummaryBlock(appendSummaryBlock(nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	if got != nil {
		t.Fatalf("nil summary decoded to %v", got)
	}
}

// roundTripVectors are the vector shapes a row shard holds — a populated
// multi-coordinate vector and an empty one (no delta, dim 0 as a block) —
// the vector round-trip table and the vector fuzzer's seed corpus.
func roundTripVectors(t testing.TB) []*summary.Vector {
	rng := rand.New(rand.NewSource(2))
	vec, err := summary.NewVector(5, 0.01, 1000)
	if err != nil {
		t.Fatal(err)
	}
	row := make([]float64, 5)
	for i := 0; i < 800; i++ {
		for j := range row {
			row[j] = rng.NormFloat64() * float64(j+1)
		}
		if err := vec.PushRow(row); err != nil {
			t.Fatal(err)
		}
	}
	empty, err := summary.NewVector(3, 0.01, 1000)
	if err != nil {
		t.Fatal(err)
	}
	return []*summary.Vector{vec, empty}
}

// vectorBlock encodes d as a vector block, a nil delta as dim 0.
func vectorBlock(d *VectorDelta) []byte {
	if d == nil {
		return appendU32(nil, 0)
	}
	return appendVectorDelta(nil, d)
}

// decodeVectorBlock reads b as exactly one vector block.
func decodeVectorBlock(b []byte) (*VectorDelta, error) {
	r := &reader{buf: b}
	d, err := readVectorBlock(r)
	if err != nil {
		return nil, err
	}
	return d, r.finish()
}

// summaryReports carry every roundTripSummaries entry as a report's Sum and
// Kept: the golden summary table and report fuzzer seeds.
func summaryReports(t testing.TB) []*Report {
	var out []*Report
	for _, s := range roundTripSummaries(t) {
		out = append(out, &Report{Leaves: 1, Sum: s, Kept: s})
	}
	return out
}

// vectorReports carry each roundTripVectors delta as a report's one leaf
// vector (none for the empty vector): the golden vector table and report
// fuzzer seeds.
func vectorReports(t testing.TB) []*Report {
	var out []*Report
	for _, v := range roundTripVectors(t) {
		rep := &Report{Leaves: 1}
		if d := DeltaFromVector(v); d != nil {
			rep.Vecs = []*VectorDelta{d}
		}
		out = append(out, rep)
	}
	return out
}

func TestVectorRoundTrip(t *testing.T) {
	for k, vec := range roundTripVectors(t) {
		d, err := decodeVectorBlock(vectorBlock(DeltaFromVector(vec)))
		if err != nil {
			t.Fatal(err)
		}
		if vec.Count() == 0 {
			if d != nil {
				t.Fatalf("vector %d: empty vector decoded to %+v", k, d)
			}
			continue
		}
		if d.Count != vec.Count() || d.Epsilon != vec.Epsilon() || len(d.Dims) != vec.Dim() {
			t.Fatalf("vector %d: meta mismatch: %+v", k, d)
		}
		for i := range d.Dims {
			if !sameEntries(vec.Coord(i).Snapshot(), d.Dims[i]) {
				t.Fatalf("vector %d: coordinate %d entries not identical", k, i)
			}
			if d.Sums[i] != vec.Coord(i).Sum() {
				t.Fatalf("vector %d: coordinate %d sum %v != %v", k, i, d.Sums[i], vec.Coord(i).Sum())
			}
		}
	}
}

// roundTripReports are the report shapes every phase produces — the
// round-trip table and the report fuzzer's seed corpus.
func roundTripReports(t testing.TB) []*Report {
	rng := rand.New(rand.NewSource(3))
	vec, err := summary.NewVector(3, 0.02, 100)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := vec.PushRow([]float64{rng.Float64(), rng.NormFloat64(), float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	return []*Report{
		{Leaves: 1}, // a bare ack: a plain worker is one leaf on every reply
		{
			Round: 7, Worker: 3, Epsilon: 0.01, Leaves: 1,
			Sum: randomSummary(t, rng, "uniform", 500, 32), Count: 500, ValueSum: 123.456,
		},
		{
			Round: 9, Worker: 1, Epsilon: 0.005, Leaves: 1,
			Counts:    Counts{HonestKept: 10, HonestTrimmed: 2, PoisonKept: 1, PoisonTrimmed: 4},
			Kept:      randomSummary(t, rng, "heavy", 300, 0),
			KeptCount: 11, KeptSum: -9.5,
			Vecs: []*VectorDelta{DeltaFromVector(vec)},
		},
		{ // shard-local generate reply
			Round: 3, Worker: 2, Epsilon: 0.01, Leaves: 1,
			Sum: randomSummary(t, rng, "uniform", 200, 16), Count: 200, ValueSum: 55.5,
			PctSums: []float64{3.96}, InputSum: -1.25,
		},
		{ // pool-trim reply: a subtree's per-leaf totals after a rollback
			Round: 4, PoolRows: []int{12, 0, 7}, Leaves: 3, Height: 1,
		},
		{ // shard-local rows classify reply
			Round: 5, Worker: 1, Epsilon: 0.02, Leaves: 1,
			Counts:    Counts{HonestKept: 2, PoisonKept: 1},
			Kept:      randomSummary(t, rng, "duplicate", 40, 0),
			KeptCount: 3, KeptSum: 4.5,
			KeptRows:   [][]float64{{1, 2}, {3, 4}, {5, 6}},
			KeptLabels: []int{0, 2, 1},
			Vecs:       []*VectorDelta{DeltaFromVector(vec)},
		},
		{ // v5: trace echo + per-phase timings (a ClassifyGenerate reply fills all three)
			Round: 11, Worker: 2, Epoch: 3, Epsilon: 0.01, Leaves: 1,
			Trace:         0x9e3779b97f4a7c15,
			GenerateNanos: 1_250_000, SummarizeNanos: 640_000, ClassifyNanos: 87_500,
			Sum: randomSummary(t, rng, "uniform", 64, 16), Count: 64, ValueSum: 12.5,
			Counts: Counts{HonestKept: 60, HonestTrimmed: 4},
		},
		{ // v6: sub-sharded generate reply with per-cell percentile sums
			Round: 12, Worker: 1, Epsilon: 0.01, Leaves: 1,
			Sum: randomSummary(t, rng, "uniform", 128, 16), Count: 128, ValueSum: 64.25,
			PctSums: []float64{1.25, 1.75, 2.5},
		},
		{ // v7: aggregated subtree reply with losses and per-level merge timings
			Round: 13, Worker: 0, Epsilon: 0.01,
			Sum: randomSummary(t, rng, "heavy", 256, 16), Count: 256, ValueSum: 19.5,
			PctSums: []float64{0.5, 0.75, 1.25},
			Leaves:  3, Height: 2, LostLeaves: []int{1, 3},
			Vecs:       []*VectorDelta{DeltaFromVector(vec), DeltaFromVector(vec)},
			MergeNanos: []int64{40_000, 125_000},
		},
		{ // combined reply: classify round 14, generate round 15
			Round: 14, Worker: 2, Epsilon: 0.01, Leaves: 1,
			Sum: randomSummary(t, rng, "uniform", 120, 16), Count: 120, ValueSum: 31.5,
			Counts:    Counts{HonestKept: 90, HonestTrimmed: 10, PoisonKept: 5, PoisonTrimmed: 15},
			Kept:      randomSummary(t, rng, "heavy", 95, 0),
			KeptCount: 95, KeptSum: 44.5,
			Vecs: []*VectorDelta{DeltaFromVector(vec)},
		},
	}
}

func TestReportRoundTrip(t *testing.T) {
	for i, rep := range roundTripReports(t) {
		got, err := DecodeReport(EncodeReport(nil, rep))
		if err != nil {
			t.Fatalf("report %d: %v", i, err)
		}
		if !reflect.DeepEqual(rep, got) {
			t.Fatalf("report %d round trip mismatch:\n%+v\n%+v", i, rep, got)
		}
	}
}

// roundTripDirectives are the directive shapes every op produces — the
// round-trip table and the directive fuzzer's seed corpus.
func roundTripDirectives() []*Directive {
	return []*Directive{
		{Op: OpConfigure, Epsilon: 0.01},
		{Op: OpClassify, Round: 6, Pct: 0.9, Threshold: 1.234},
		{Op: OpStop},
		{ // shard-local configure: scalar reference (v14: the only pool)
			Op: OpConfigure, Epsilon: 0.01,
			RefSorted: []float64{1, 2, 3},
		},
		{ // shard-local configure: sorted LDP pool + mechanism
			Op: OpConfigure, Epsilon: 0.02,
			Pool:     []float64{-0.5, 0.5},
			MechKind: 1, MechEps: 2,
		},
		{ // shard-local configure: row dataset
			Op: OpConfigure, Epsilon: 0.01,
			Rows:     Matrix{Dim: 3, Data: []float64{1, 2, 3, 4, 5, 6}},
			Labels:   []uint32{1, 0},
			Clusters: 2, PoisonLabel: -1,
		},
		{ // O(1) shard-local round directive: one cell
			Op: OpGenerate, Round: 3,
			Gen: &GenSpec{
				Cells:      []Cell{{Seed: -12345, HonestN: 250, PoisonN: 50}},
				InjectKind: 2, InjectP: 0.5, InjectLo: 0.9, InjectHi: 1,
				Jitter: 1e-6,
			},
		},
		{ // the row game's generate carries the center and the clean scale summary
			Op: OpGenerate, Round: 4, Center: []float64{1, 2},
			Gen: &GenSpec{
				Cells:      []Cell{{Seed: 99, HonestN: 100, PoisonN: 20}},
				InjectKind: 1, InjectHi: 0.99, Jitter: 0.001,
				Scale: summary.FromUnsorted([]float64{0.5, 1.5, 2.5}),
			},
		},
		{ // the row game's generate for a subtree: several cells, one center and scale
			Op: OpGenerate, Round: 5, Center: []float64{0.5, -1},
			Gen: &GenSpec{
				Cells:      []Cell{{Seed: 3, HonestN: 50, PoisonN: 10}, {Seed: 4, HonestN: 50, PoisonN: 10}, {Seed: 5, HonestN: 50}},
				InjectKind: 2, InjectP: 0.25, InjectLo: 0.9, InjectHi: 0.99, Jitter: 1e-6,
				Scale: summary.FromUnsorted([]float64{0.75, 1.5, 2.25, 3}),
			},
		},
		{ // pipelined combined op: classify round 5, generate round 6
			Op: OpClassifyGenerate, Round: 5, Pct: 0.9, Threshold: 1.5,
			Gen: &GenSpec{
				Cells:      []Cell{{Seed: 7, HonestN: 100, PoisonN: 20}},
				InjectKind: 1, InjectHi: 0.99, Jitter: 1e-6,
			},
		},
		{ // v5: traced round fan-out
			Op: OpClassify, Round: 8, Epoch: 2, Pct: 0.95, Threshold: 2.5,
			Trace: 0xbf58476d1ce4e5b9,
		},
		{Op: OpHeartbeat}, // v13: the aggregator's construction probe
		{ // v6: multi-cell generate with the adaptive-ε focus window
			Op: OpClassifyGenerate, Round: 9, Pct: 0.9, Threshold: 1.75,
			FocusPct: 0.9, FocusWidth: 0.05, FocusTighten: 8,
			Gen: &GenSpec{
				Cells: []Cell{
					{Seed: 42, HonestN: 100, PoisonN: 20},
					{Seed: 43, HonestN: 100, PoisonN: 20},
					{Seed: 44, HonestN: 100, PoisonN: 20},
				},
				InjectKind: 1, InjectHi: 0.99, Jitter: 1e-6,
			},
		},
		{ // the row game's combined op: the speculated round's center and clean scale
			Op: OpClassifyGenerate, Round: 10, Pct: 0.9, Threshold: 2.25,
			Center: []float64{0.5, 1.5},
			Gen: &GenSpec{
				Cells:      []Cell{{Seed: 17, HonestN: 100, PoisonN: 20}, {Seed: 18, HonestN: 100}},
				InjectKind: 1, InjectHi: 0.99, Jitter: 1e-6,
				Scale: summary.FromUnsorted([]float64{0.25, 0.75, 1.25, 9.75}),
			},
		},
		{Op: OpFetchRows, Leaf: 3, Lo: 4096, Hi: 8192}, // v8: kept-row page
		{Op: OpPoolTrim, Round: 7, Cuts: []int{5, 9}},  // v8: pool rollback targets (v13: Cuts only)
	}
}

func TestDirectiveRoundTrip(t *testing.T) {
	for i, d := range roundTripDirectives() {
		got, err := DecodeDirective(EncodeDirective(nil, d))
		if err != nil {
			t.Fatalf("directive %d: %v", i, err)
		}
		if !reflect.DeepEqual(d, got) {
			t.Fatalf("directive %d round trip mismatch:\n%+v\n%+v", i, d, got)
		}
	}
}

// Every strict prefix of a valid message must be rejected, and the error for
// payload-level cuts must be ErrTruncated — never a partial decode.
func TestDecodeRejectsTruncation(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	s := randomSummary(t, rng, "uniform", 64, 16)
	msgs := map[string][]byte{
		"summary": appendSummaryBlock(nil, s),
		"report": EncodeReport(nil, &Report{
			Round: 1, Sum: s, Count: 64, ValueSum: 30, PoolRows: []int{1, 2}, Leaves: 2,
		}),
		"directive": EncodeDirective(nil, &Directive{
			Op: OpGenerate, Round: 1, Center: []float64{1, 2, 3}, Gen: &GenSpec{Cells: []Cell{{Seed: 1, HonestN: 2}}},
		}),
		// Cuts inside each padded block's pad and elements.
		"configure": EncodeDirective(nil, viewConfigure()),
	}
	decode := map[string]func([]byte) error{
		"summary":   func(b []byte) error { _, err := decodeSummaryBlock(b); return err },
		"report":    func(b []byte) error { _, err := DecodeReport(b); return err },
		"directive": func(b []byte) error { _, err := DecodeDirective(b); return err },
		"configure": func(b []byte) error { _, err := DecodeDirective(b); return err },
	}
	for name, msg := range msgs {
		for cut := 0; cut < len(msg); cut++ {
			err := decode[name](msg[:cut])
			if err == nil {
				t.Fatalf("%s truncated at %d/%d: decode succeeded", name, cut, len(msg))
			}
			if cut >= headerSize && !errors.Is(err, ErrTruncated) {
				t.Fatalf("%s truncated at %d/%d: error %v, want ErrTruncated", name, cut, len(msg), err)
			}
		}
		if err := decode[name](append(append([]byte(nil), msg...), 0)); err == nil {
			t.Fatalf("%s with trailing byte: decode succeeded", name)
		}
	}
}

// The coordinator-fed Summarize/SummarizeRows op codes (2 and 3, retired in
// format 9), the row game's GenerateRows (7, retired in format 10), its
// clean-scale pass Scale (8, retired in format 12) and the aggregator's
// TreeInfo probe (13, retired in format 13) are never reused: a directive
// carrying any of them must fail to decode, so no worker or aggregator
// acts on one. Their neighbours stay valid — the remaining ops keep their
// numbers.
func TestDecodeRejectsRetiredOps(t *testing.T) {
	for _, op := range []Op{2, 3, 7, 8, 13} {
		_, err := DecodeDirective(EncodeDirective(nil, &Directive{Op: op, Round: 1}))
		if err == nil || !strings.Contains(err.Error(), "retired") {
			t.Errorf("op %d: error = %v, want a retired-op refusal", op, err)
		}
	}
	for _, op := range []Op{OpConfigure, OpClassify, OpGenerate, OpHeartbeat, OpClassifyGenerate, OpFetchRows} {
		if _, err := DecodeDirective(EncodeDirective(nil, &Directive{Op: op})); err != nil {
			t.Errorf("op %d: %v", op, err)
		}
	}
	if OpClassify != 4 || OpGenerate != 6 || OpHeartbeat != 9 || OpClassifyGenerate != 12 ||
		OpFetchRows != 14 || OpPoolTrim != 15 {
		t.Errorf("op codes renumbered: classify %d, generate %d, heartbeat %d, classify+generate %d, fetch rows %d, pool trim %d",
			OpClassify, OpGenerate, OpHeartbeat, OpClassifyGenerate, OpFetchRows, OpPoolTrim)
	}
}

// Every reply stands for a subtree of at least one leaf — a plain worker
// is a one-leaf subtree — so a report claiming 0 leaves is refused at
// decode, before a coordinator or aggregator sizes a split by it.
func TestDecodeRejectsZeroLeaves(t *testing.T) {
	for _, rep := range []*Report{{}, {Round: 4, PoolRows: []int{3}, Counts: Counts{HonestKept: 3}}} {
		if _, err := DecodeReport(EncodeReport(nil, rep)); err == nil || !strings.Contains(err.Error(), "0 leaves") {
			t.Errorf("report %+v: error = %v, want a 0-leaves refusal", rep, err)
		}
	}
	if _, err := DecodeReport(EncodeReport(nil, &Report{Leaves: 1})); err != nil {
		t.Errorf("one-leaf report: %v", err)
	}
}

// A generator spec draws at least one cell: an empty cell list is refused
// at decode, before any worker or aggregator sees it.
func TestDecodeRejectsGenSpecWithoutCells(t *testing.T) {
	d := &Directive{Op: OpGenerate, Round: 1, Gen: &GenSpec{InjectKind: 1, InjectHi: 0.99}}
	if _, err := DecodeDirective(EncodeDirective(nil, d)); err == nil || !strings.Contains(err.Error(), "without cells") {
		t.Fatalf("zero-cell generator spec: error = %v, want a refusal", err)
	}
}

// Byte budget of the v10 layout: a one-cell generator spec costs what the
// aggregate seed and counts plus an empty sub-shard list did (20 B), and a
// report's percentile sums cost one f64 per cell behind the list length.
func TestCellLayoutSize(t *testing.T) {
	one := &Directive{Op: OpGenerate, Gen: &GenSpec{Cells: []Cell{{Seed: 1}}}}
	none := &Directive{Op: OpGenerate}
	// flag + 4-byte cell count + 16 B per cell + inject kind/p/lo/hi + jitter
	// + empty scale block, against the flag alone.
	if got, want := len(EncodeDirective(nil, one))-len(EncodeDirective(nil, none)), 4+16+1+4*8+4; got != want {
		t.Errorf("one-cell generator spec costs %d B, want %d", got, want)
	}
	gen := EncodeReport(nil, &Report{PctSums: []float64{0.5}})
	ack := EncodeReport(nil, &Report{})
	if got := len(gen) - len(ack); got != 8 {
		t.Errorf("one percentile sum costs %d B, want 8", got)
	}
}

func TestDecodeRejectsWrongVersionMagicKind(t *testing.T) {
	msg := EncodeReport(nil, &Report{Leaves: 1, Sum: summary.FromUnsorted([]float64{1, 2, 3})})

	future := append([]byte(nil), msg...)
	future[2] = Version + 1
	if _, err := DecodeReport(future); !errors.Is(err, ErrVersion) {
		t.Fatalf("future version: %v, want ErrVersion", err)
	}

	bad := append([]byte(nil), msg...)
	bad[0] = 'X'
	if _, err := DecodeReport(bad); !errors.Is(err, ErrMagic) {
		t.Fatalf("bad magic: %v, want ErrMagic", err)
	}

	if _, err := DecodeDirective(msg); !errors.Is(err, ErrKind) {
		t.Fatalf("kind mismatch: %v, want ErrKind", err)
	}
	// The retired standalone summary and vector kinds (format 17).
	for _, k := range []byte{1, 2} {
		retired := append([]byte(nil), msg...)
		retired[3] = k
		if _, err := DecodeReport(retired); !errors.Is(err, ErrKind) {
			t.Fatalf("retired kind %d: %v, want ErrKind", k, err)
		}
	}

	// A retired version (below MinVersion) must be rejected too: version 1
	// messages have an incompatible layout, and silent misparsing is worse
	// than a loud ErrVersion at the configure fan-out.
	old := append([]byte(nil), msg...)
	old[2] = MinVersion - 1
	if _, err := DecodeReport(old); !errors.Is(err, ErrVersion) {
		t.Fatalf("retired version: %v, want ErrVersion", err)
	}
}

// A corrupt element count must fail cleanly instead of allocating gigabytes.
func TestDecodeRejectsOversizedCount(t *testing.T) {
	block := appendSummaryBlock(nil, summary.FromUnsorted([]float64{1, 2, 3}))
	block[0], block[1], block[2], block[3] = 0xff, 0xff, 0xff, 0xff
	if _, err := decodeSummaryBlock(block); !errors.Is(err, ErrTruncated) {
		t.Fatalf("oversized count: %v, want ErrTruncated", err)
	}
}

// summaryMsg hand-assembles a summary block: the entry count, a form byte
// and the given entry bytes.
func summaryMsg(n uint32, form byte, entries ...[]byte) []byte {
	msg := append(appendU32(nil, n), form)
	for _, e := range entries {
		msg = append(msg, e...)
	}
	return msg
}

// entry hand-assembles one entry: the key delta d behind a length byte of
// its significant bytes, then the rank fields (uvarints in the integer
// form, f64s in the float form).
func entry(d uint64, form byte, ranks ...float64) []byte {
	n := deltaLen(d)
	b := append([]byte{byte(n)}, binary.LittleEndian.AppendUint64(nil, d)[:n]...)
	for _, x := range ranks {
		if form == formFloat {
			b = appendF64(b, x)
		} else {
			b = binary.AppendUvarint(b, uint64(x))
		}
	}
	return b
}

// Every class of malformed summary block is refused — by the block decoder
// where the layout cannot express the entry, by the summary.FromEntries
// validation behind it where the entry parses but breaks the summary —
// and a block cut inside an entry fails as truncated.
func TestDecodeRejectsInvalidEntries(t *testing.T) {
	one := stats.Float64Key(1)
	valid := summaryMsg(2, formInt, entry(one, formInt, 1, 0, 0), entry(1, formInt, 1, 1, 0))
	if _, err := decodeSummaryBlock(valid); err != nil {
		t.Fatalf("hand-assembled block does not decode: %v", err)
	}
	for _, c := range []struct {
		name string
		msg  []byte
		want string
	}{
		{"repeated value", summaryMsg(2, formInt, entry(one, formInt, 1, 0, 0), entry(0, formInt, 1, 1, 0)), "not above predecessor"},
		{"key overflow", summaryMsg(2, formInt, entry(one, formInt, 1, 0, 0), entry(1<<63, formInt, 1, 1, 0)), "key overflows"},
		{"length byte above 8", summaryMsg(1, formInt, append([]byte{9}, make([]byte, 12)...)), "9-byte value delta"},
		{"unknown form", summaryMsg(1, 2, entry(one, formInt, 1, 0, 0)), "unknown summary block form 2"},
		{"NaN value", summaryMsg(1, formInt, entry(stats.Float64Key(math.Inf(1))+1, formInt, 1, 0, 0)), "NaN value"},
		{"zero weight", summaryMsg(1, formInt, entry(one, formInt, 0, 0, 0)), "weight 0"},
		{"MaxRank regress", summaryMsg(2, formFloat, entry(one, formFloat, 1, 0, 5), entry(1, formFloat, 1, 1, 4)), "rank bounds regress"},
		{"rank above 2^53", summaryMsg(1, formInt, entry(one, formInt, 1, maxExact, 0)), "rank 9007199254740993 above 2^53"},
		{"truncated entry", valid[:len(valid)-2], ErrTruncated.Error()},
	} {
		_, err := decodeSummaryBlock(c.msg)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error = %v, want one mentioning %q", c.name, err, c.want)
		}
		if c.want == ErrTruncated.Error() && !errors.Is(err, ErrTruncated) {
			t.Errorf("%s: error = %v, want ErrTruncated", c.name, err)
		}
	}
}

// Byte budget of the format-11 summary block, pinned without timing: the
// summary a worker ships per cell encodes in at most 11 B per entry
// (format 10 spent 32), and a unit-weight summary — fresh, compressed,
// merged, or over edge values — always takes the integer form.
func TestSummaryBlockBytes(t *testing.T) {
	game := gameSummary(t)
	block := appendSummaryBlock(nil, game)
	if per := float64(len(block)-4) / float64(game.Size()); per > 11 {
		t.Errorf("game-shaped summary: %.2f B/entry over %d entries, want ≤ 11", per, game.Size())
	}
	merged := game.Clone()
	for _, s := range unitSummaries(t) {
		merged.Merge(s)
	}
	for i, s := range slices.Concat([]*summary.Summary{game, merged}, unitSummaries(t), edgeSummaries()) {
		if form := appendSummaryBlock(nil, s)[4]; form != formInt {
			t.Errorf("unit-weight summary %d takes form %d, want the integer form", i, form)
		}
	}
	for i, s := range floatSummaries(t) {
		if form := appendSummaryBlock(nil, s)[4]; form != formFloat {
			t.Errorf("float-form summary %d takes form %d", i, form)
		}
	}
}
