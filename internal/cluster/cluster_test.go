package cluster

import (
	"math"
	"net"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/arrival"
	"repro/internal/attack"
	"repro/internal/stats"
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

// scalarConf configures a scalar worker whose sorted reference is 99 2s
// topped by one 10: seed 1's first honest draws all land on a 2, and a
// point injection at the top percentile without jitter lands on the 10,
// so every generated arrival is known exactly.
func scalarConf() *wire.Directive {
	return refConf(append(slices.Repeat([]float64{2}, 99), 10))
}

// scalarGen is a generate directive drawing honest arrivals from
// scalarConf's reference and poison at its top (value 10).
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
	// The scalar coordinator absorbs the kept values' summary.
	if rep.Kept == nil || rep.Kept.TotalWeight() != 8 {
		t.Fatalf("kept summary %v, want one of total weight 8", rep.Kept)
	}
}

// An LDP worker's classify reply carries what its coordinator folds into
// the mean estimate — the tallies and the exact kept count and sum — and
// no kept-value summary. The kept values are the held reports at or below
// the threshold, regenerated here from the cell seed. A default-budget
// configure resolves the budget, and every reply reports it.
func TestWorkerLDPRound(t *testing.T) {
	const threshold = 0.25
	pool := []float64{-0.5, 0, 0.25, 0.5}
	conf := ldpConf(pool)
	conf.Epsilon = 0
	gen := &wire.Directive{Op: wire.OpGenerate, Round: 1, Gen: &wire.GenSpec{
		Cells:      []wire.Cell{{Seed: 7, HonestN: 40, PoisonN: 8}},
		InjectKind: byte(attack.SpecPoint), InjectHi: 1,
	}}
	tr := NewLoopback(1)
	reps := []*wire.Report{call(t, tr, 0, conf), call(t, tr, 0, gen)}
	rep := call(t, tr, 0, &wire.Directive{Op: wire.OpClassify, Round: 1, Threshold: threshold})
	for i, r := range append(reps, rep) {
		if r.Epsilon != summary.DefaultEpsilon {
			t.Errorf("reply %d reports budget %v, want the default %v", i, r.Epsilon, summary.DefaultEpsilon)
		}
	}

	mech, err := arrival.MechFromWire(arrival.MechPiecewise, conf.MechEps, 0)
	if err != nil {
		t.Fatal(err)
	}
	g, err := arrival.NewLDP(pool, mech)
	if err != nil {
		t.Fatal(err)
	}
	specs, err := arrival.SpecFromWire(gen.Gen)
	if err != nil {
		t.Fatal(err)
	}
	held, _, _, err := g.Draw(stats.NewRand(7), specs[0])
	if err != nil {
		t.Fatal(err)
	}
	n, sum := 0, 0.0
	for _, v := range held {
		if v <= threshold {
			n++
			sum += v
		}
	}
	if n == 0 || n == len(held) {
		t.Fatalf("threshold %v keeps %d of %d reports; pick one that splits them", threshold, n, len(held))
	}
	if rep.Kept != nil {
		t.Errorf("LDP classify shipped a kept summary of %d entries, want none", rep.Kept.Size())
	}
	if rep.KeptCount != n || rep.KeptSum != sum {
		t.Errorf("kept aggregates: count %d sum %v, want %d and %v", rep.KeptCount, rep.KeptSum, n, sum)
	}
	if c := rep.Counts; c.HonestKept+c.PoisonKept != n || c.HonestTrimmed+c.PoisonTrimmed != len(held)-n {
		t.Errorf("counts %+v for %d kept of %d", c, n, len(held))
	}
}

// refConf, ldpConf and grrConf configure a scalar worker over the given
// reference and an LDP (Piecewise) or categorical (GRR) worker over the
// given input pool.
func refConf(ref []float64) *wire.Directive {
	return &wire.Directive{Op: wire.OpConfigure, Epsilon: 0.01, RefSorted: ref}
}

func ldpConf(pool []float64) *wire.Directive {
	return &wire.Directive{Op: wire.OpConfigure, Epsilon: 0.01, Pool: pool, MechKind: byte(arrival.MechPiecewise), MechEps: 2}
}

func grrConf(pool []float64) *wire.Directive {
	return &wire.Directive{Op: wire.OpConfigure, Epsilon: 0.01, Pool: pool, MechKind: byte(arrival.MechGRR), MechEps: 1.5, MechK: 4}
}

// rowConf configures a row worker over the given dataset and labels (nil:
// unlabeled), with poison labels drawn at random from clusters classes.
func rowConf(rows [][]float64, labels []int, clusters int) *wire.Directive {
	var y []uint32
	if labels != nil {
		y = make([]uint32, len(labels))
		for i, l := range labels {
			y[i] = uint32(l)
		}
	}
	return &wire.Directive{Op: wire.OpConfigure, Epsilon: 0.01, Rows: wire.MatrixOf(rows), Labels: y, Clusters: clusters, PoisonLabel: -1}
}

// A worker keeps exactly the one sorted pool it is shipped, so it refuses
// a configure it could only use by guessing: a scalar configure carrying a
// pool besides (or instead of) its reference, a reference or LDP/GRR pool
// that is not in sort order or holds a NaN, and a GRR pool entry that is
// not a category. It refuses a row dataset it cannot draw from: labels
// that do not pair with the rows, random poison labels without a class
// count, and a NaN or infinite coordinate, whose distances the summary
// would drop. A refused configure leaves no generator behind.
func TestWorkerConfigureRefusals(t *testing.T) {
	ref := []float64{1, 2, 3}
	rows := [][]float64{{3, 4}, {1, 2}}
	for _, c := range []struct {
		name string
		d    *wire.Directive
		want string
	}{
		{"scalar with a pool", &wire.Directive{Op: wire.OpConfigure, Pool: ref, RefSorted: ref}, "carries a pool"},
		{"scalar with a pool and no reference", &wire.Directive{Op: wire.OpConfigure, Pool: ref}, "carries a pool"},
		{"unsorted reference", refConf([]float64{1, 3, 2}), "not sorted"},
		{"reference with a NaN", refConf([]float64{math.NaN(), 1}), "NaN"},
		{"unsorted LDP pool", ldpConf([]float64{0.5, -0.5}), "not sorted"},
		{"unsorted GRR pool", grrConf([]float64{0, 2, 1}), "not sorted"},
		{"non-category GRR pool", grrConf([]float64{0, 1.5}), "pool entry 1.5"},
		{"empty LDP pool", ldpConf(nil), "empty"},
		{"row with a NaN coordinate", rowConf([][]float64{{3, 4}, {1, math.NaN()}}, []int{1, 0}, 2), "row 1 holds a NaN"},
		{"row with an infinite coordinate", rowConf([][]float64{{math.Inf(-1), 4}, {1, 2}}, nil, 2), "row 0 holds a NaN or infinite"},
		{"short label list", rowConf(rows, []int{1}, 2), "1 labels for 2 rows"},
		{"random poison labels without a class count", rowConf(rows, []int{1, 0}, 0), "class count"},
		{"sketch budget too small to size", &wire.Directive{Op: wire.OpConfigure, Epsilon: 1e-9, RefSorted: ref}, "epsilon 1e-09 outside"},
	} {
		w := NewWorker(0)
		_, err := w.Handle(wire.EncodeDirective(nil, c.d))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: configure error %v, want one saying %q", c.name, err, c.want)
		}
		if _, err := w.Handle(wire.EncodeDirective(nil, scalarGen(1, 1, 0))); err == nil {
			t.Errorf("%s: a refused configure left a generator behind", c.name)
		}
	}
}

// A configured worker holds one copy of its pool and nothing else: 1M
// values are 8 MB, where a second copy (a sorted LDP scale beside the
// pool, a scalar pool beside the reference, or a decoded pool beside the
// request it came in) doubles it. The one copy is the request itself: the
// worker keeps a view of the configure message's pool.
func TestWorkerConfigureKeepsOnePool(t *testing.T) {
	const n, bound = 1_000_000, 12 << 20
	sorted := func() []float64 {
		pool := make([]float64, n)
		for i := range pool {
			pool[i] = float64(i)/n*2 - 1
		}
		return pool
	}
	for _, c := range []struct {
		name string
		conf func([]float64) *wire.Directive
	}{{"LDP", ldpConf}, {"scalar", refConf}} {
		w := NewWorker(0)
		before := heapAfterGC()
		if _, err := w.Handle(wire.EncodeDirective(nil, c.conf(sorted()))); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		after := heapAfterGC()
		runtime.KeepAlive(w)
		if grew := int64(after) - int64(before); grew >= bound {
			t.Errorf("%s worker retains %.1f MiB for a %d-value pool (8 MB a copy), want < %d MiB",
				c.name, float64(grew)/(1<<20), n, bound>>20)
		}
	}
}

// The configure is where a coordinator's bytes reach the most worker code:
// whatever they hold, neither they nor one fixed small generate after them
// (one cell, 10 honest, 2 poison) nor one fixed classify after that may
// panic. When the configure and the generate are accepted, the generate
// report counts all 12 arrivals and the classify is accepted too. Its
// reply holds the per-report checks a coordinator could make: the four
// tallies add up to 12, the kept ones to KeptCount, and a kept-value
// summary comes back from the scalar game only, weighing KeptCount (an
// empty one is nil on the wire). The generate stays fixed because cell
// counts are unbounded on the wire; it carries a 2-dim center and a clean
// scale, so a configured 2-dim row dataset draws too (a scalar or LDP
// worker ignores both).
func FuzzWorkerConfigure(f *testing.F) {
	for _, d := range []*wire.Directive{
		scalarConf(),
		ldpConf([]float64{-0.5, 0, 0.25, 0.5}),
		grrConf([]float64{0, 1, 1, 3}),
		rowConf([][]float64{{3, 4}, {1, 2}}, []int{1, 0}, 2),
		// Finite, but its squared distance from the center overflows:
		// poison rows measure its offset in units of its largest
		// coordinate, so all 12 arrivals draw.
		rowConf([][]float64{{1.7e308, 0}}, nil, 0),
	} {
		f.Add(wire.EncodeDirective(nil, d))
	}
	d := scalarGen(1, 10, 2)
	d.Center, d.Gen.Scale = []float64{0, 0}, summary.FromUnsorted([]float64{5, 10})
	gen := wire.EncodeDirective(nil, d)
	classify := wire.EncodeDirective(nil, &wire.Directive{Op: wire.OpClassify, Round: 1, Threshold: 6})
	f.Fuzz(func(t *testing.T, conf []byte) {
		// A fresh worker per input: a configured worker keeps views of its
		// configure message, and the fuzz engine may reuse an input's memory
		// once the call returns, so no worker may outlive the input it was
		// configured from.
		w := NewWorker(0)
		if _, err := w.Handle(conf); err != nil {
			return
		}
		out, err := w.Handle(gen)
		if err != nil {
			return
		}
		rep, err := wire.DecodeReport(out)
		if err != nil {
			t.Fatalf("generate reply does not decode: %v", err)
		}
		if rep.Count != 12 {
			t.Fatalf("generate report counts %d arrivals, want 12", rep.Count)
		}
		if out, err = w.Handle(classify); err != nil {
			t.Fatalf("classify after an accepted generate: %v", err)
		}
		if rep, err = wire.DecodeReport(out); err != nil {
			t.Fatalf("classify reply does not decode: %v", err)
		}
		c := rep.Counts
		if n := c.HonestKept + c.HonestTrimmed + c.PoisonKept + c.PoisonTrimmed; n != 12 {
			t.Fatalf("classify tallies %+v count %d arrivals, want 12", c, n)
		}
		if c.HonestKept+c.PoisonKept != rep.KeptCount {
			t.Fatalf("classify tallies %+v keep %d, KeptCount %d", c, c.HonestKept+c.PoisonKept, rep.KeptCount)
		}
		if w.scalarGen == nil {
			if rep.Kept != nil {
				t.Fatalf("a non-scalar classify shipped a kept summary of %d entries", rep.Kept.Size())
			}
		} else if weight := keptWeight(rep); weight != float64(rep.KeptCount) {
			t.Fatalf("kept summary weighs %v, KeptCount %d", weight, rep.KeptCount)
		}
	})
}

// A finite row whose squared distance from the center overflows still
// measures finite: FuzzWorkerConfigure's seed dataset {1.7e308, 0}, drawn
// honest-only about the origin, enters the round summary at its distance
// 1.7e308 rather than at +Inf.
func TestWorkerRowDistanceOverflow(t *testing.T) {
	tr := NewLoopback(1)
	call(t, tr, 0, rowConf([][]float64{{1.7e308, 0}}, nil, 0))
	rep := call(t, tr, 0, &wire.Directive{Op: wire.OpGenerate, Round: 1, Center: []float64{0, 0},
		Gen: &wire.GenSpec{Cells: []wire.Cell{{Seed: 1, HonestN: 4}}}})
	e := rep.Sum.Entries()
	if len(e) == 0 {
		t.Fatal("empty round summary")
	}
	if max := e[len(e)-1].Value; max != 1.7e308 {
		t.Fatalf("round summary maximum %v, want the row's distance 1.7e308", max)
	}
}

// keptWeight is the total weight of a reply's kept summary, 0 when none
// came back.
func keptWeight(rep *wire.Report) float64 {
	if rep.Kept == nil {
		return 0
	}
	return rep.Kept.TotalWeight()
}

// A row worker's pool keeps references, not rows: a kept honest row already
// lives in the configured dataset, so it costs the pool its 4 B index into
// it (at most 5 B with slice growth), and a kept poison row its
// coordinates, its index and its label. Rounds from a labeled 2,000 × 18
// dataset under a threshold that keeps every row retain, once each round's
// state is dropped, at most 8 B per kept row plus 8·dim B per kept poison
// row. In the poison case poison is a twentieth of the kept rows, a
// minority as in the game, so the honest rows' allowance covers the
// quarter of the poison block that append's growth may leave unused. A
// pool of row slice headers retained about 36 B per kept row, and one
// that copies every row about 180 B.
func TestWorkerPoolKeepsHeldRows(t *testing.T) {
	const n, dim, rounds, bound = 2000, 18, 8, 8
	x := make([][]float64, n)
	labels := make([]int, n)
	for i := range x {
		x[i] = make([]float64, dim)
		for j := range x[i] {
			x[i][j] = float64((i*31+j*7)%101) / 10
		}
		labels[i] = i % 3
	}
	for _, c := range []struct {
		name           string
		honest, poison int // per round
	}{
		{"honest", 4000, 0},
		{"poison", 4000, 200},
	} {
		w := NewWorker(0)
		handle := func(d *wire.Directive) {
			t.Helper()
			if _, err := w.Handle(wire.EncodeDirective(nil, d)); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
		}
		handle(rowConf(x, labels, 3))
		before := heapAfterGC()
		for r := 1; r <= rounds; r++ {
			handle(&wire.Directive{Op: wire.OpGenerate, Round: r, Center: make([]float64, dim),
				Gen: &wire.GenSpec{
					Cells:      []wire.Cell{{Seed: int64(r), HonestN: c.honest, PoisonN: c.poison}},
					InjectKind: byte(attack.SpecPoint), InjectHi: 0.9,
					Scale: summary.FromUnsorted([]float64{1, 2, 4, 8}),
				}})
			handle(&wire.Directive{Op: wire.OpClassify, Round: r, Threshold: math.Inf(1)})
		}
		after := heapAfterGC()
		runtime.KeepAlive(w)
		kept, poison := rounds*(c.honest+c.poison), rounds*c.poison
		if w.pool.Len() != kept {
			t.Fatalf("%s: pool holds %d rows, want all %d kept", c.name, w.pool.Len(), kept)
		}
		grew := int64(after) - int64(before)
		if limit := int64(bound*kept + 8*dim*poison); grew > limit {
			t.Errorf("%s: worker retains %d B for %d kept %d-dim rows (%d poison), want ≤ %d: %d B per kept row besides the poison coordinates",
				c.name, grew, kept, dim, poison, limit, (grew-int64(8*dim*poison))/int64(kept))
		}
		t.Logf("%s: %.2f B per kept row besides the poison coordinates", c.name, float64(grew-int64(8*dim*poison))/float64(kept))
	}
}

// The row phase: distances from the broadcast center, kept rows appended to
// the worker's own pool (only the pool total travels), and a vector delta
// of the accepted rows.
func TestWorkerRowRound(t *testing.T) {
	tr := NewLoopback(1)
	call(t, tr, 0, &wire.Directive{
		Op: wire.OpConfigure, Epsilon: 0.01,
		Rows: wire.Matrix{Dim: 2, Data: []float64{3, 4}}, Labels: []uint32{1}, Clusters: 2, PoisonLabel: 0,
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
	// The row coordinator folds the vector deltas, not a kept-distance summary.
	if rep.Kept != nil {
		t.Fatalf("row classify shipped a kept summary of %d entries, want none", rep.Kept.Size())
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
	if _, err := w.Handle(wire.EncodeDirective(nil, &wire.Directive{Op: wire.OpConfigure, Rows: wire.Matrix{Dim: 1, Data: []float64{1}}})); err != nil {
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
		{Op: wire.OpConfigure, Epsilon: 0.01, Rows: wire.Matrix{Dim: 2, Data: []float64{1, 2}}},
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
