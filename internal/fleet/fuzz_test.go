package fleet

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/stats/summary"
	"repro/internal/wire"
)

// FuzzLoadLatest reads a checkpoint directory whose newest file holds
// arbitrary bytes — a resuming coordinator's one input from disk. An older,
// valid checkpoint sits beside it, so a refusal of the newest file must
// surface as an error, never as a silent fall-back. LoadLatest must never
// panic, a snapshot it accepts must re-encode to a fixed point, and each of
// its stream states must rebuild through FromState (VectorFromState for
// the row game's vector) into a stream or an error, as a resume does. Run
// longer with
// `go test ./internal/fleet -run=NONE -fuzz=FuzzLoadLatest -fuzztime=15s`.
func FuzzLoadLatest(f *testing.F) {
	stream := func(n int) *summary.StreamState {
		st, err := summary.New(0.05, n)
		if err != nil {
			f.Fatal(err)
		}
		for i := 0; i < n; i++ {
			st.Push(float64(i%89) / 3)
		}
		return st.State()
	}
	scalar := &wire.Snapshot{
		Game: wire.SnapScalar, Seed: 7, Rounds: 10, Batch: 100, Ratio: 0.2, Epsilon: 0.05,
		Workers: 3, NextRound: 3, Epoch: 1, BaselineQ: 0.5,
		Records:  make([]wire.SnapRound, 2),
		Losses:   []wire.SnapLoss{{Round: 2, Worker: 1, Lo: 33, Hi: 66, Phase: "generate"}},
		Events:   []wire.SnapEvent{{Kind: 1, Epoch: 1, Round: 2, Worker: 1}},
		Received: stream(500),
		Kept:     stream(30),
	}
	rows := &wire.Snapshot{
		Game: wire.SnapRows, Seed: 9, Rounds: 8, Batch: 50, Ratio: 0.1, Epsilon: 0.05,
		Workers: 2, NextRound: 2, LateCenter: true, KeptPoison: 4,
		Records:    make([]wire.SnapRound, 1),
		VecState:   []*summary.StreamState{stream(300), stream(200)},
		PrevCenter: []float64{0.5, -1.5},
		PoolRows:   []int{40, 0},
	}
	older := wire.EncodeSnapshot(nil, scalar)
	for _, s := range []*wire.Snapshot{scalar, rows} {
		raw := wire.EncodeSnapshot(nil, s)
		f.Add(raw)
		f.Add(raw[:len(raw)/2])
	}
	f.Add([]byte{})
	f.Add([]byte("TQ\x0b\x05")) // a format-11 header
	// A kept stream claiming a block size New never builds: restoring it
	// as claimed would allocate a 16 GiB push buffer.
	huge := *scalar
	huge.Kept = stream(30)
	huge.Kept.BlockSize = 1<<31 - 1
	f.Add(wire.EncodeSnapshot(nil, &huge))

	f.Fuzz(func(t *testing.T, raw []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "checkpoint-000002.tq"), older, 0o644); err != nil {
			t.Fatal(err)
		}
		newest := filepath.Join(dir, "checkpoint-000004.tq")
		if err := os.WriteFile(newest, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		snap, path, err := LoadLatest(dir)
		if err != nil {
			return
		}
		if path != newest {
			t.Fatalf("loaded %s, newest is %s", path, newest)
		}
		enc := wire.EncodeSnapshot(nil, snap)
		back, err := wire.DecodeSnapshot(enc)
		if err != nil {
			t.Fatalf("accepted snapshot does not re-decode: %v", err)
		}
		if !bytes.Equal(wire.EncodeSnapshot(nil, back), enc) {
			t.Fatal("accepted snapshot does not re-encode to a fixed point")
		}
		for _, st := range []*summary.StreamState{snap.Received, snap.Kept} {
			if s, err := summary.FromState(st); s == nil && err == nil {
				t.Fatal("FromState returned neither a stream nor an error")
			}
		}
		if v, err := summary.VectorFromState(snap.VecState); v == nil && err == nil {
			t.Fatal("VectorFromState returned neither a vector nor an error")
		}
	})
}
