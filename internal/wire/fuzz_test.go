package wire

import (
	"bytes"
	"testing"
)

// The decoders are the process boundary: whatever bytes arrive, decoding
// must fail cleanly or return a message that re-encodes to a fixed point —
// decode, encode, decode, encode yields the same bytes — so no worker,
// aggregator or coordinator ever acts on a message it could not forward
// bit for bit. Seeds are the round-trip tables' messages, the layouts this
// format changed (multi-cell generator specs, scale attachments) and the
// retired op codes. Run longer with
// `go test ./internal/wire -run=NONE -fuzz=FuzzDecodeDirective -fuzztime=15s`.

func FuzzDecodeDirective(f *testing.F) {
	for _, d := range roundTripDirectives() {
		f.Add(EncodeDirective(nil, d))
	}
	for _, op := range []Op{2, 3, 7} {
		f.Add(EncodeDirective(nil, &Directive{Op: op, Round: 1}))
	}
	f.Add(EncodeDirective(nil, &Directive{Op: OpGenerate, Gen: &GenSpec{}}))
	f.Fuzz(func(t *testing.T, raw []byte) {
		d, err := DecodeDirective(raw)
		if err != nil {
			return
		}
		enc := EncodeDirective(nil, d)
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
