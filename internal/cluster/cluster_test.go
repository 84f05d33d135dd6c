package cluster

import (
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/attack"
	"repro/internal/stats/summary"
	"repro/internal/wire"
)

func call(t *testing.T, tr Transport, w int, d *wire.Directive) *wire.Report {
	t.Helper()
	out, err := tr.Call(w, wire.EncodeDirective(nil, d))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := wire.DecodeReport(out)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// scalarConf configures a scalar worker whose honest pool is all 2s and
// whose reference tops out at 10: with a point injection at the top
// percentile and no jitter, every generated arrival is known exactly.
func scalarConf() *wire.Directive {
	return &wire.Directive{
		Op: wire.OpConfigure, Epsilon: 0.01,
		Pool:      []float64{2},
		RefSorted: []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10},
	}
}

// scalarGen is a generate directive drawing honest arrivals from
// scalarConf's pool and poison at the reference's top (value 10).
func scalarGen(round, honest, poison int) *wire.Directive {
	return &wire.Directive{Op: wire.OpGenerate, Round: round, Gen: &wire.GenSpec{
		Cells:      []wire.Cell{{Seed: 1, HonestN: honest, PoisonN: poison}},
		InjectKind: byte(attack.SpecPoint), InjectHi: 1,
	}}
}

// One full worker round over the loopback: configure, generate, classify.
func TestWorkerRound(t *testing.T) {
	tr := NewLoopback(1)
	call(t, tr, 0, scalarConf())

	// Eight honest 2s, then two poison arrivals at 10.
	rep := call(t, tr, 0, scalarGen(1, 8, 2))
	if rep.Count != 10 || rep.ValueSum != 36 {
		t.Fatalf("generate report: count %d sum %v", rep.Count, rep.ValueSum)
	}
	if got := rep.Sum.Query(0.5); got != 2 {
		t.Fatalf("median of shard summary = %v", got)
	}
	if len(rep.PctSums) != 1 || rep.PctSums[0] != 2 {
		t.Fatalf("injection percentile sums %v, want [2]", rep.PctSums)
	}

	rep = call(t, tr, 0, &wire.Directive{Op: wire.OpClassify, Round: 1, Threshold: 8.5})
	want := wire.Counts{HonestKept: 8, HonestTrimmed: 0, PoisonKept: 0, PoisonTrimmed: 2}
	// The two poison arrivals sit at 10, above threshold 8.5.
	if rep.Counts != want {
		t.Fatalf("counts %+v, want %+v", rep.Counts, want)
	}
	if rep.KeptCount != 8 || rep.KeptSum != 16 {
		t.Fatalf("kept aggregates: count %d sum %v", rep.KeptCount, rep.KeptSum)
	}
}

// The row phase: distances from the broadcast center, kept rows appended to
// the worker's own pool (only the pool total travels), and a vector delta
// of the accepted rows.
func TestWorkerRowRound(t *testing.T) {
	tr := NewLoopback(1)
	call(t, tr, 0, &wire.Directive{
		Op: wire.OpConfigure, Epsilon: 0.01,
		Rows: [][]float64{{3, 4}}, Labels: []int{1}, Clusters: 2, PoisonLabel: 0,
	})

	// Two honest rows at distance 5 from the origin, one poison row pushed
	// out to distance 10 (the clean scale's top).
	rep := call(t, tr, 0, &wire.Directive{
		Op: wire.OpGenerate, Round: 1, Center: []float64{0, 0},
		Gen: &wire.GenSpec{
			Cells:      []wire.Cell{{Seed: 1, HonestN: 2, PoisonN: 1}},
			InjectKind: byte(attack.SpecPoint), InjectHi: 1,
			Scale: summary.FromUnsorted([]float64{10}),
		},
	})
	if rep.Count != 3 || rep.ValueSum != 20 {
		t.Fatalf("distance aggregates: count %d sum %v", rep.Count, rep.ValueSum)
	}

	rep = call(t, tr, 0, &wire.Directive{Op: wire.OpClassify, Round: 1, Threshold: 6})
	if got, want := rep.Counts, (wire.Counts{HonestKept: 2, PoisonTrimmed: 1}); got != want {
		t.Fatalf("counts %+v, want %+v", got, want)
	}
	if len(rep.KeptRows) != 0 || len(rep.PoolRows) != 1 || rep.PoolRows[0] != 2 {
		t.Fatalf("classify shipped rows %v / pool totals %v, want no rows and pool [2]", rep.KeptRows, rep.PoolRows)
	}
	if len(rep.Vecs) != 1 || rep.Vecs[0].Count != 2 || len(rep.Vecs[0].Dims) != 2 {
		t.Fatalf("vector deltas %+v, want one 2-row delta", rep.Vecs)
	}
	// Kept rows (3,4) twice: coordinate sums 6 and 8.
	if rep.Vecs[0].Sums[0] != 6 || rep.Vecs[0].Sums[1] != 8 {
		t.Fatalf("vector sums %v", rep.Vecs[0].Sums)
	}
	page := call(t, tr, 0, &wire.Directive{Op: wire.OpFetchRows, Lo: 0, Hi: 2})
	if len(page.KeptRows) != 2 || page.KeptLabels[0] != 1 {
		t.Fatalf("fetched page %v labels %v", page.KeptRows, page.KeptLabels)
	}
}

// Protocol misuse is an error, not corrupted state.
func TestWorkerPhaseErrors(t *testing.T) {
	w := NewWorker(0)
	if _, err := w.Handle(wire.EncodeDirective(nil, &wire.Directive{Op: wire.OpClassify, Round: 1})); err == nil {
		t.Fatal("classify before generate succeeded")
	}
	if _, err := w.Handle([]byte("not a directive")); err == nil {
		t.Fatal("garbage request succeeded")
	}
	if _, err := w.Handle(wire.EncodeDirective(nil, scalarGen(1, 1, 0))); err == nil {
		t.Fatal("generate before configure succeeded")
	}
	if _, err := w.Handle(wire.EncodeDirective(nil, &wire.Directive{Op: wire.OpConfigure, Rows: [][]float64{{1}}})); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Handle(wire.EncodeDirective(nil, &wire.Directive{Op: wire.OpGenerate, Round: 1, Gen: &wire.GenSpec{Cells: []wire.Cell{{HonestN: 1}}}})); err == nil {
		t.Fatal("row generate without center succeeded")
	}
	// The retired op codes do not decode.
	for _, op := range []wire.Op{2, 3, 7, 8, 13} {
		if _, err := w.Handle(wire.EncodeDirective(nil, &wire.Directive{Op: op, Round: 1})); err == nil {
			t.Fatalf("retired op %d succeeded", op)
		}
	}
}

// A plain worker is a one-leaf subtree: every reply says so (Leaves 1,
// height 0), and a pool-trim directive must carry exactly its one target.
func TestWorkerRepliesAsOneLeaf(t *testing.T) {
	tr := NewLoopback(1)
	for _, d := range []*wire.Directive{
		{Op: wire.OpHeartbeat},
		{Op: wire.OpHello},
		{Op: wire.OpConfigure, Epsilon: 0.01, Rows: [][]float64{{1, 2}}},
		{Op: wire.OpJoin},
		{Op: wire.OpPoolTrim, Cuts: []int{0}},
	} {
		if rep := call(t, tr, 0, d); rep.Leaves != 1 || rep.Height != 0 {
			t.Errorf("op %d reply shape %d leaves height %d, want 1/0", d.Op, rep.Leaves, rep.Height)
		}
	}
	for _, cuts := range [][]int{nil, {0, 0}} {
		_, err := tr.Call(0, wire.EncodeDirective(nil, &wire.Directive{Op: wire.OpPoolTrim, Cuts: cuts}))
		if err == nil || !strings.Contains(err.Error(), "pool-trim targets") {
			t.Errorf("pool trim with %d targets: error = %v, want a refusal", len(cuts), err)
		}
	}
}

func TestLoopbackFailureInjection(t *testing.T) {
	tr := NewLoopback(2)
	tr.Fail(1)
	if _, err := tr.Call(1, wire.EncodeDirective(nil, &wire.Directive{Op: wire.OpConfigure})); err == nil {
		t.Fatal("failed worker answered")
	}
	if _, err := tr.Call(0, wire.EncodeDirective(nil, &wire.Directive{Op: wire.OpConfigure})); err != nil {
		t.Fatalf("healthy worker errored: %v", err)
	}
	if _, err := tr.Call(7, nil); err == nil {
		t.Fatal("out-of-range worker answered")
	}
}

// TCP transport: a real socket round trip, worker shutdown on OpStop, and
// dial retry behavior.
func TestTCPServeAndDial(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorker(0)
	served := make(chan error, 1)
	go func() { served <- Serve(ln, w) }()

	tr, err := Dial([]string{ln.Addr().String()}, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	out, err := tr.Call(0, wire.EncodeDirective(nil, &wire.Directive{Op: wire.OpConfigure, Epsilon: 0.02}))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := wire.DecodeReport(out)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Epsilon != 0.02 {
		t.Fatalf("configure ack epsilon %v", rep.Epsilon)
	}
	if _, err := tr.Call(0, wire.EncodeDirective(nil, &wire.Directive{Op: wire.OpStop})); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("serve returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server did not shut down after OpStop")
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestDialUnreachable(t *testing.T) {
	_, err := Dial([]string{"127.0.0.1:1"}, 50*time.Millisecond)
	if err == nil || !strings.Contains(err.Error(), "dial worker") {
		t.Fatalf("err = %v", err)
	}
	if _, err := Dial(nil, time.Second); err == nil {
		t.Fatal("empty address list accepted")
	}
}
