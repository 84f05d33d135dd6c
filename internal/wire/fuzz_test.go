package wire

import (
	"bytes"
	"testing"
)

// The decoders are the process boundary: whatever bytes arrive, decoding
// must fail cleanly or return a message that re-encodes to a fixed point —
// decode, encode, decode, encode yields the same bytes — so no worker,
// aggregator or coordinator ever acts on a message it could not forward
// bit for bit. Seeds are the round-trip tables' messages (multi-cell
// generator specs, clean-scale summaries on generate directives among
// them), a configure carrying several blocks (dataset rows, labels and a
// pool), the retired op codes, a report claiming 0 leaves and a snapshot
// with an unknown membership event kind. A directive is decoded twice, as
// given and copied to an odd offset, so every input drives both ways a
// configure's padded blocks decode — as views of the message and by
// copying — and the two must agree. Run longer with
// `go test ./internal/wire -run=NONE -fuzz=FuzzDecodeDirective -fuzztime=15s`
// (likewise FuzzDecodeReport, FuzzDecodeSummary, FuzzDecodeVector and
// FuzzDecodeSnapshot).

func FuzzDecodeDirective(f *testing.F) {
	for _, d := range roundTripDirectives() {
		f.Add(EncodeDirective(nil, d))
	}
	for _, op := range []Op{2, 3, 7, 8} {
		f.Add(EncodeDirective(nil, &Directive{Op: op, Round: 1}))
	}
	f.Add(EncodeDirective(nil, &Directive{Op: OpGenerate, Gen: &GenSpec{}}))
	f.Add(EncodeDirective(nil, &Directive{
		Op: OpConfigure, Epsilon: 0.01,
		Rows:     [][]float64{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}, {-1, 0.5, 2.5}},
		Labels:   []int{0, 1, 1, 0},
		Pool:     []float64{0.25, -3, 8, 1e-9, 42},
		Clusters: 2, PoisonLabel: -1,
	}))
	f.Add(EncodeDirective(nil, &Directive{Op: 13})) // the retired TreeInfo probe
	f.Add(EncodeDirective(nil, viewConfigure()))
	f.Fuzz(func(t *testing.T, raw []byte) {
		d, err := DecodeDirective(raw)
		odd := make([]byte, len(raw)+1)[1:]
		copy(odd, raw)
		dOdd, errOdd := DecodeDirective(odd)
		if (err == nil) != (errOdd == nil) {
			t.Fatalf("as given: %v; at an odd offset: %v", err, errOdd)
		}
		if err != nil {
			return
		}
		enc := EncodeDirective(nil, d)
		if encOdd := EncodeDirective(nil, dOdd); !bytes.Equal(enc, encOdd) {
			t.Fatalf("decodes as given and at an odd offset re-encode apart:\n%x\n%x", enc, encOdd)
		}
		again, err := DecodeDirective(enc)
		if err != nil {
			t.Fatalf("re-encoded directive does not decode: %v", err)
		}
		if enc2 := EncodeDirective(nil, again); !bytes.Equal(enc, enc2) {
			t.Fatalf("directive encoding is not a fixed point:\n%x\n%x", enc, enc2)
		}
	})
}

func FuzzDecodeReport(f *testing.F) {
	for _, rep := range roundTripReports(f) {
		f.Add(EncodeReport(nil, rep))
	}
	f.Add(EncodeReport(nil, &Report{Round: 2, PctSums: []float64{0.5}})) // claims 0 leaves
	f.Fuzz(func(t *testing.T, raw []byte) {
		rep, err := DecodeReport(raw)
		if err != nil {
			return
		}
		enc := EncodeReport(nil, rep)
		again, err := DecodeReport(enc)
		if err != nil {
			t.Fatalf("re-encoded report does not decode: %v", err)
		}
		if enc2 := EncodeReport(nil, again); !bytes.Equal(enc, enc2) {
			t.Fatalf("report encoding is not a fixed point:\n%x\n%x", enc, enc2)
		}
	})
}

// FuzzDecodeSummary drives the entry-block decoder and the summary.FromEntries
// validation behind it, which every summary-bearing message shares.
func FuzzDecodeSummary(f *testing.F) {
	for _, s := range roundTripSummaries(f) {
		f.Add(EncodeSummary(nil, s))
	}
	f.Add(EncodeSummary(nil, nil))
	f.Fuzz(func(t *testing.T, raw []byte) {
		s, err := DecodeSummary(raw)
		if err != nil {
			return
		}
		enc := EncodeSummary(nil, s)
		again, err := DecodeSummary(enc)
		if err != nil {
			t.Fatalf("re-encoded summary does not decode: %v", err)
		}
		if enc2 := EncodeSummary(nil, again); !bytes.Equal(enc, enc2) {
			t.Fatalf("summary encoding is not a fixed point:\n%x\n%x", enc, enc2)
		}
	})
}

// encodeVectorDelta re-encodes a decoded vector as a KindVector message.
func encodeVectorDelta(d *VectorDelta) []byte {
	buf := appendHeader(nil, KindVector)
	if d == nil {
		return appendU32(buf, 0)
	}
	return appendVectorDelta(buf, d)
}

// FuzzDecodeVector drives the per-coordinate summary blocks of a vector
// delta through summary.FromEntries.
func FuzzDecodeVector(f *testing.F) {
	for _, v := range roundTripVectors(f) {
		f.Add(EncodeVector(nil, v))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		d, err := DecodeVector(raw)
		if err != nil {
			return
		}
		enc := encodeVectorDelta(d)
		again, err := DecodeVector(enc)
		if err != nil {
			t.Fatalf("re-encoded vector does not decode: %v", err)
		}
		if enc2 := encodeVectorDelta(again); !bytes.Equal(enc, enc2) {
			t.Fatalf("vector encoding is not a fixed point:\n%x\n%x", enc, enc2)
		}
	})
}

// FuzzDecodeSnapshot drives the checkpoint decoder a resuming coordinator
// trusts: records, losses, events, stream states and the rows extension.
func FuzzDecodeSnapshot(f *testing.F) {
	for _, s := range roundTripSnapshots(f) {
		f.Add(EncodeSnapshot(nil, s))
	}
	f.Add(EncodeSnapshot(nil, badEventKindSnapshot(f, 3))) // retired grow kind
	f.Fuzz(func(t *testing.T, raw []byte) {
		s, err := DecodeSnapshot(raw)
		if err != nil {
			return
		}
		enc := EncodeSnapshot(nil, s)
		again, err := DecodeSnapshot(enc)
		if err != nil {
			t.Fatalf("re-encoded snapshot does not decode: %v", err)
		}
		if enc2 := EncodeSnapshot(nil, again); !bytes.Equal(enc, enc2) {
			t.Fatalf("snapshot encoding is not a fixed point:\n%x\n%x", enc, enc2)
		}
	})
}
