package cluster

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/stats/summary"
	"repro/internal/wire"
)

// viewsOnThisHost reports whether the wire views a configure's blocks in
// place here: it does on a little-endian host, and copies on a big-endian
// one.
func viewsOnThisHost() bool { return binary.NativeEndian.Uint16([]byte{1, 0}) == 1 }

// inMessage reports whether the first element of v lies inside msg.
func inMessage(v []float64, msg []byte) bool {
	p, lo := reflect.ValueOf(v).Pointer(), reflect.ValueOf(msg).Pointer()
	return len(v) > 0 && p >= lo && p < lo+uintptr(len(msg))
}

// configureCase is one game's configure, the generate that plays it and the
// data its worker keeps from the configure: the reference, the pool or
// every dataset row.
type configureCase struct {
	name string
	conf *wire.Directive
	gen  *wire.Directive
	kept func(*Worker) [][]float64
}

func configureCases() []configureCase {
	sorted := make([]float64, 512)
	for i := range sorted {
		sorted[i] = float64(i)/256 - 1
	}
	rows := make([][]float64, 64)
	for i := range rows {
		rows[i] = []float64{float64(i % 8), float64(i / 8)}
	}
	rowGen := scalarGen(1, 40, 8)
	rowGen.Center, rowGen.Gen.Scale = []float64{3, 3}, summary.FromUnsorted([]float64{1, 2, 4, 8})
	return []configureCase{
		{"scalar", refConf(sorted), scalarGen(1, 40, 8),
			func(w *Worker) [][]float64 { return [][]float64{w.scalarGen.Ref} }},
		{"LDP", ldpConf(sorted), scalarGen(1, 40, 8),
			func(w *Worker) [][]float64 { return [][]float64{w.ldpGen.Pool} }},
		{"rows", rowConf(rows, nil, 0), rowGen,
			func(w *Worker) [][]float64 { return w.rowGen.X }},
	}
}

// Workers configured from one encoded message share its data: every
// worker's reference, pool or dataset row is the same array, a view of the
// message, so an in-process fleet holds one copy of the configure data
// however many workers it runs.
func TestWorkersShareConfigureMessage(t *testing.T) {
	if !viewsOnThisHost() {
		t.Skip("a big-endian host decodes a copy per worker")
	}
	for _, c := range configureCases() {
		msg := wire.EncodeDirective(nil, c.conf)
		a, b := NewWorker(0), NewWorker(1)
		for _, w := range []*Worker{a, b} {
			if _, err := w.Handle(msg); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
		}
		ka, kb := c.kept(a), c.kept(b)
		for i := range ka {
			if &ka[i][0] != &kb[i][0] || !inMessage(ka[i], msg) {
				t.Fatalf("%s: block %d: workers hold %p and %p, inside the message %v; want one array inside it",
					c.name, i, &ka[i][0], &kb[i][0], inMessage(ka[i], msg))
			}
		}
	}
}

// A worker only reads the configure message it keeps views of: after the
// configure, two pipelined rounds (generate, classify+generate, classify)
// and, in the row game, a fetch of its kept rows, the message is byte for
// byte the copy saved before the configure.
func TestWorkerLeavesConfigureMessageUnwritten(t *testing.T) {
	for _, c := range configureCases() {
		msg := wire.EncodeDirective(nil, c.conf)
		saved := bytes.Clone(msg)
		w := NewWorker(0)
		if _, err := w.Handle(msg); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if viewsOnThisHost() && !inMessage(c.kept(w)[0], msg) {
			t.Fatalf("%s: the worker holds a copy of its configure data, not a view", c.name)
		}
		next := *c.gen
		next.Op, next.Threshold = wire.OpClassifyGenerate, 2
		last := &wire.Directive{Op: wire.OpClassify, Round: 2, Threshold: 2}
		for _, d := range []*wire.Directive{c.gen, &next, last} {
			handle(t, w, d)
		}
		if c.name == "rows" {
			if page := handle(t, w, &wire.Directive{Op: wire.OpFetchRows, Lo: 0, Hi: 8}); len(page.KeptRows) == 0 {
				t.Fatalf("%s: fetched no kept row", c.name)
			}
		}
		if !bytes.Equal(msg, saved) {
			t.Fatalf("%s: the configure message changed under the worker", c.name)
		}
	}
}

// BenchmarkConfigureRetainedHeap configures 32 loopback workers — the
// ldp-wide fleet — from one encoded LDP configure of a 250,000-value pool
// and reports the live heap each worker adds (B/worker). A worker that
// decodes its own copy of the pool adds 2 MB; one that keeps a view of the
// message adds its generator and nothing of the pool.
func BenchmarkConfigureRetainedHeap(b *testing.B) {
	const workers, n = 32, 250_000
	pool := make([]float64, n)
	for i := range pool {
		pool[i] = float64(i)/n*2 - 1
	}
	msg := wire.EncodeDirective(nil, ldpConf(pool))
	var perWorker float64
	for range b.N {
		tr := NewLoopback(workers)
		before := heapAfterGC()
		for i := range workers {
			if _, err := tr.Call(i, msg); err != nil {
				b.Fatal(err)
			}
		}
		after := heapAfterGC()
		runtime.KeepAlive(tr)
		perWorker = float64(int64(after)-int64(before)) / workers
	}
	b.ReportMetric(perWorker, "B/worker")
}
