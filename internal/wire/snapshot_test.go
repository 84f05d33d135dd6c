package wire

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/stats/summary"
)

func testStreamState(t testing.TB, n int) *summary.StreamState {
	t.Helper()
	st, err := summary.New(0.02, 500)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		st.Push(float64(i % 89))
	}
	return st.State()
}

func testSnapshot(t testing.TB) *Snapshot {
	t.Helper()
	return &Snapshot{
		Game: SnapScalar,
		Seed: -12345, Rounds: 20, Batch: 20000, Ratio: 0.2, Epsilon: 0.005,
		Workers: 4, SubShards: 2, FocusTighten: 8, FocusWidth: 0.05,
		NextRound: 8, Epoch: 3, BaselineQ: 0.01234,
		Records: []SnapRound{
			{Round: 1, ThresholdPct: 0.9, ThresholdValue: 1.28, MeanInjectionPct: 0.95,
				HonestKept: 18000, HonestTrimmed: 2000, PoisonKept: 100, PoisonTrimmed: 3900,
				Quality: 0.02, BaselineQuality: 0.012},
			{Round: 2, ThresholdPct: 0.9, ThresholdValue: 1.30, MeanInjectionPct: math.NaN(),
				HonestKept: 18000, HonestTrimmed: 2000, Quality: 0.02, BaselineQuality: 0.012},
			{Round: 3}, {Round: 4}, {Round: 5}, {Round: 6}, {Round: 7},
		},
		Losses: []SnapLoss{
			{Round: 4, Worker: 2, Lo: 10000, Hi: 15000, Phase: "generate"},
			{Round: 5, Worker: 0, Phase: "classify"},
		},
		Events: []SnapEvent{
			{Kind: 1, Epoch: 1, Round: 4, Worker: 2},
			{Kind: 2, Epoch: 2, Round: 6, Worker: 2},
			{Kind: 1, Epoch: 3, Round: 5, Worker: 0},
		},
		Received:     testStreamState(t, 1200),
		Kept:         testStreamState(t, 800),
		Egress:       987654,
		EgressConfig: 4321,
	}
}

// Encode∘Decode is the identity on snapshots, including NaN record fields,
// loss phase strings, stream push buffers and nil level slots.
func TestSnapshotRoundTrip(t *testing.T) {
	snap := testSnapshot(t)
	raw := EncodeSnapshot(nil, snap)
	back, err := DecodeSnapshot(raw)
	if err != nil {
		t.Fatal(err)
	}
	if string(EncodeSnapshot(nil, back)) != string(raw) {
		t.Fatal("re-encoding the decoded snapshot changed bytes")
	}
	if back.Seed != snap.Seed || back.NextRound != snap.NextRound || back.Epoch != snap.Epoch {
		t.Fatalf("scalars diverged: %+v", back)
	}
	if back.SubShards != snap.SubShards || back.FocusTighten != snap.FocusTighten || back.FocusWidth != snap.FocusWidth {
		t.Fatalf("v6 fingerprint diverged: %+v", back)
	}
	if !math.IsNaN(back.Records[1].MeanInjectionPct) {
		t.Fatal("NaN injection pct lost")
	}
	if back.Records[0] != snap.Records[0] {
		t.Fatalf("record 0 diverged: %+v", back.Records[0])
	}
	if len(back.Losses) != 2 || back.Losses[0] != snap.Losses[0] || back.Losses[1].Phase != "classify" {
		t.Fatalf("losses diverged: %+v", back.Losses)
	}
	if len(back.Events) != 3 || back.Events[1] != snap.Events[1] {
		t.Fatalf("events diverged: %+v", back.Events)
	}
	// The stream states restore into working streams whose observables
	// match streams restored from the originals.
	for _, pair := range [][2]*summary.StreamState{
		{snap.Received, back.Received}, {snap.Kept, back.Kept},
	} {
		a, err := summary.FromState(pair[0])
		if err != nil {
			t.Fatal(err)
		}
		b, err := summary.FromState(pair[1])
		if err != nil {
			t.Fatal(err)
		}
		if a.Count() != b.Count() || a.Sum() != b.Sum() {
			t.Fatal("restored stream counters diverged across the wire")
		}
		for q := 0.05; q < 1; q += 0.1 {
			if a.Query(q) != b.Query(q) {
				t.Fatalf("restored stream Query(%v) diverged", q)
			}
		}
	}
}

// testRowsSnapshot is testSnapshot cut from a row game: it additionally
// carries the accepted-vector state, the delay line's trailing center and
// the kept-pool manifest.
func testRowsSnapshot(t testing.TB) *Snapshot {
	snap := testSnapshot(t)
	snap.Game = SnapRows
	snap.LateCenter = true
	snap.KeptPoison = 42
	snap.VecState = []*summary.StreamState{
		testStreamState(t, 300),
		testStreamState(t, 200),
	}
	snap.PrevCenter = []float64{0.5, -1.5}
	snap.PoolRows = []int{120, 80, 0, 99}
	return snap
}

// roundTripSnapshots are both games' snapshots — the snapshot fuzzer's seed
// corpus and the golden table.
func roundTripSnapshots(t testing.TB) []*Snapshot {
	return []*Snapshot{testSnapshot(t), testRowsSnapshot(t)}
}

// A rows-game snapshot additionally carries the accepted-vector state, the
// delay line's trailing center (a LateCenter run plays the resumed round
// against it) and the kept-pool manifest — all of which must survive the
// wire bit for bit.
func TestSnapshotRowsRoundTrip(t *testing.T) {
	snap := testRowsSnapshot(t)
	raw := EncodeSnapshot(nil, snap)
	back, err := DecodeSnapshot(raw)
	if err != nil {
		t.Fatal(err)
	}
	if string(EncodeSnapshot(nil, back)) != string(raw) {
		t.Fatal("re-encoding the decoded rows snapshot changed bytes")
	}
	if !back.LateCenter || back.KeptPoison != snap.KeptPoison {
		t.Fatalf("rows scalars diverged: LateCenter=%v KeptPoison=%d", back.LateCenter, back.KeptPoison)
	}
	if !reflect.DeepEqual(back.PrevCenter, snap.PrevCenter) {
		t.Fatalf("trailing center diverged: %v", back.PrevCenter)
	}
	if !reflect.DeepEqual(back.PoolRows, snap.PoolRows) {
		t.Fatalf("pool manifest diverged: %v", back.PoolRows)
	}
	if len(back.VecState) != len(snap.VecState) {
		t.Fatalf("vector state count %d, want %d", len(back.VecState), len(snap.VecState))
	}
	for i := range snap.VecState {
		a, err := summary.FromState(snap.VecState[i])
		if err != nil {
			t.Fatal(err)
		}
		b, err := summary.FromState(back.VecState[i])
		if err != nil {
			t.Fatal(err)
		}
		if a.Count() != b.Count() || a.Query(0.5) != b.Query(0.5) {
			t.Fatalf("vector coordinate %d diverged across the wire", i)
		}
	}
}

// badEventKindSnapshot is a snapshot whose membership log carries a kind
// other than drop (1) or admit (2) — the corrupt checkpoint a resume must
// refuse rather than replay a wrong loss/recovery history from.
func badEventKindSnapshot(t testing.TB, kind byte) *Snapshot {
	snap := testSnapshot(t)
	snap.Events[1].Kind = kind
	return snap
}

func TestSnapshotRejectsMalformed(t *testing.T) {
	snap := testSnapshot(t)
	raw := EncodeSnapshot(nil, snap)

	if _, err := DecodeSnapshot(raw[:len(raw)-3]); !errors.Is(err, ErrTruncated) {
		t.Fatalf("truncated: %v", err)
	}
	if _, err := DecodeSnapshot(append(append([]byte(nil), raw...), 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
	wrongKind := append([]byte(nil), raw...)
	wrongKind[3] = byte(KindReport)
	if _, err := DecodeSnapshot(wrongKind); !errors.Is(err, ErrKind) {
		t.Fatalf("kind: %v", err)
	}

	badGame := testSnapshot(t)
	badGame.Game = 99
	if _, err := DecodeSnapshot(EncodeSnapshot(nil, badGame)); err == nil {
		t.Fatal("unknown game accepted")
	}
	badRound := testSnapshot(t)
	badRound.NextRound = 3 // 7 records say otherwise
	if _, err := DecodeSnapshot(EncodeSnapshot(nil, badRound)); err == nil {
		t.Fatal("inconsistent next round accepted")
	}
	// Drop and admit are the only membership event kinds: any other byte
	// fails to decode instead of being skipped by the history readers.
	for _, kind := range []byte{0, 3, 7} {
		_, err := DecodeSnapshot(EncodeSnapshot(nil, badEventKindSnapshot(t, kind)))
		if err == nil || !strings.Contains(err.Error(), "unknown kind") {
			t.Errorf("event kind %d: error = %v, want an unknown-kind refusal", kind, err)
		}
	}
}

// The fleet fields of version 3 directives and reports survive the round
// trip: epochs, the configured flag, heartbeat/hello/join ops, and the GRR
// mechanism arity.
func TestFleetFieldsRoundTrip(t *testing.T) {
	for _, op := range []Op{OpHeartbeat, OpHello, OpJoin} {
		d := &Directive{Op: op, Round: 7, Epoch: 5}
		back, err := DecodeDirective(EncodeDirective(nil, d))
		if err != nil {
			t.Fatal(err)
		}
		if back.Op != op || back.Round != 7 || back.Epoch != 5 {
			t.Fatalf("op %d: %+v", op, back)
		}
	}
	conf := &Directive{
		Op: OpConfigure, Epsilon: 0.01,
		Pool: []float64{0, 1, 2, 3}, MechKind: 3, MechEps: 2.5, MechK: 8,
	}
	back, err := DecodeDirective(EncodeDirective(nil, conf))
	if err != nil {
		t.Fatal(err)
	}
	if back.MechKind != 3 || back.MechEps != 2.5 || back.MechK != 8 {
		t.Fatalf("mechanism fields diverged: %+v", back)
	}
	rep := &Report{Round: 3, Worker: 2, Epoch: 4, Configured: true, Epsilon: 0.01, Leaves: 1}
	brep, err := DecodeReport(EncodeReport(nil, rep))
	if err != nil {
		t.Fatal(err)
	}
	if brep.Epoch != 4 || !brep.Configured || brep.Worker != 2 {
		t.Fatalf("report fleet fields diverged: %+v", brep)
	}
}
