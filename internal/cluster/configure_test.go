package cluster

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/attack"
	"repro/internal/stats/summary"
	"repro/internal/wire"
)

// viewsOnThisHost reports whether the wire views a configure's blocks in
// place here: it does on a little-endian host, and copies on a big-endian
// one.
func viewsOnThisHost() bool { return binary.NativeEndian.Uint16([]byte{1, 0}) == 1 }

// inMessage reports whether the first element of v lies inside msg.
func inMessage[E any](v []E, msg []byte) bool {
	p, lo := reflect.ValueOf(v).Pointer(), reflect.ValueOf(msg).Pointer()
	return len(v) > 0 && p >= lo && p < lo+uintptr(len(msg))
}

// configureCase is one game's configure, the generate that plays it and the
// data its worker keeps from the configure: the reference, the pool or the
// dataset's coordinates, and the dataset's labels (nil for the scalar and
// LDP games).
type configureCase struct {
	name   string
	conf   *wire.Directive
	gen    *wire.Directive
	kept   func(*Worker) []float64
	labels func(*Worker) []uint32
}

func configureCases() []configureCase {
	sorted := make([]float64, 512)
	for i := range sorted {
		sorted[i] = float64(i)/256 - 1
	}
	rows := make([][]float64, 64)
	labels := make([]int, len(rows))
	for i := range rows {
		rows[i] = []float64{float64(i % 8), float64(i / 8)}
		labels[i] = i % 3
	}
	rowGen := scalarGen(1, 40, 8)
	rowGen.Center, rowGen.Gen.Scale = []float64{3, 3}, summary.FromUnsorted([]float64{1, 2, 4, 8})
	return []configureCase{
		{name: "scalar", conf: refConf(sorted), gen: scalarGen(1, 40, 8),
			kept: func(w *Worker) []float64 { return w.scalarGen.Ref }},
		{name: "LDP", conf: ldpConf(sorted), gen: scalarGen(1, 40, 8),
			kept: func(w *Worker) []float64 { return w.ldpGen.Pool }},
		{name: "rows", conf: rowConf(rows, labels, 3), gen: rowGen,
			kept:   func(w *Worker) []float64 { return w.rowGen.X.Data },
			labels: func(w *Worker) []uint32 { return w.rowGen.Y }},
	}
}

// Workers configured from one encoded message share its data: every
// worker's reference, pool, or dataset coordinates and labels are the same
// arrays, each a single view of the message, so an in-process fleet holds
// one copy of the configure data however many workers it runs. A row
// worker holds its dataset flat, with no per-row slice headers of its own.
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
		if &ka[0] != &kb[0] || len(ka) != len(kb) || !inMessage(ka, msg) {
			t.Fatalf("%s: workers hold %p and %p, inside the message %v; want one array inside it",
				c.name, &ka[0], &kb[0], inMessage(ka, msg))
		}
		if c.labels == nil {
			continue
		}
		if la, lb := c.labels(a), c.labels(b); len(la) != c.conf.Rows.Len() || &la[0] != &lb[0] || !inMessage(la, msg) {
			t.Fatalf("%s: workers hold %d labels at %p and %p, inside the message %v; want one block of %d inside it",
				c.name, len(la), &la[0], &lb[0], inMessage(la, msg), c.conf.Rows.Len())
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
		if viewsOnThisHost() && !inMessage(c.kept(w), msg) {
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

// BenchmarkConfigureRetainedHeap configures a loopback fleet from one
// encoded configure and reports the live heap each worker adds
// (B/worker):
//
//   - ldp: 32 workers — the ldp-wide fleet — from an LDP configure of a
//     250,000-value pool. A worker that decodes its own copy of the pool
//     adds 2 MB; one that keeps a view of the message adds its generator
//     and nothing of the pool.
//   - rows: 16 workers — the rows-tree fleet — from a labeled 20,000 × 18
//     row configure. A worker that builds its own row headers and copies
//     the labels adds 20,000 × (24 + 8) B, about 640 KB; one that keeps
//     flat views of the coordinates and the labels adds its generator and
//     its empty kept-row pool.
func BenchmarkConfigureRetainedHeap(b *testing.B) {
	pool := make([]float64, 250_000)
	for i := range pool {
		pool[i] = float64(i)/float64(len(pool))*2 - 1
	}
	rows := make([][]float64, 20_000)
	labels := make([]int, len(rows))
	for i := range rows {
		rows[i] = make([]float64, 18)
		for j := range rows[i] {
			rows[i][j] = float64((i*31+j*7)%101) / 10
		}
		labels[i] = i % 4
	}
	for _, c := range []struct {
		name    string
		workers int
		conf    *wire.Directive
	}{
		{"ldp", 32, ldpConf(pool)},
		{"rows", 16, rowConf(rows, labels, 4)},
	} {
		b.Run(c.name, func(b *testing.B) {
			msg := wire.EncodeDirective(nil, c.conf)
			var perWorker float64
			for range b.N {
				tr := NewLoopback(c.workers)
				before := heapAfterGC()
				for i := range c.workers {
					if _, err := tr.Call(i, msg); err != nil {
						b.Fatal(err)
					}
				}
				after := heapAfterGC()
				runtime.KeepAlive(tr)
				perWorker = float64(int64(after)-int64(before)) / float64(c.workers)
			}
			b.ReportMetric(perWorker, "B/worker")
		})
	}
}

// reconfigured builds a labeled row configure and a worker whose pool
// holds rows of it: one generate with poison and one classify that keeps
// every row. It returns the worker, the configure message and the page of
// every kept row.
func reconfigured(t *testing.T) (*Worker, []byte, *wire.Report) {
	t.Helper()
	rows := make([][]float64, 32)
	labels := make([]int, len(rows))
	for i := range rows {
		rows[i] = []float64{float64(i % 8), float64(i / 8), float64(i) / 4}
		labels[i] = i % 3
	}
	msg := wire.EncodeDirective(nil, rowConf(rows, labels, 3))
	w := NewWorker(0)
	if _, err := w.Handle(msg); err != nil {
		t.Fatal(err)
	}
	handle(t, w, &wire.Directive{Op: wire.OpGenerate, Round: 1, Center: []float64{3, 2, 4},
		Gen: &wire.GenSpec{
			Cells:      []wire.Cell{{Seed: 5, HonestN: 20, PoisonN: 6}},
			InjectKind: byte(attack.SpecPoint), InjectHi: 0.9,
			Scale: summary.FromUnsorted([]float64{1, 2, 4, 8}),
		}})
	handle(t, w, &wire.Directive{Op: wire.OpClassify, Round: 1, Threshold: math.Inf(1)})
	page := handle(t, w, &wire.Directive{Op: wire.OpFetchRows, Lo: 0, Hi: 64})
	if len(page.KeptRows) != 26 {
		t.Fatalf("the pool pages %d rows, want all 26 kept", len(page.KeptRows))
	}
	return w, msg, page
}

// samePage fails unless a fetch of the worker's whole pool returns want's
// rows and labels.
func samePage(t *testing.T, w *Worker, want *wire.Report, what string) {
	t.Helper()
	got := handle(t, w, &wire.Directive{Op: wire.OpFetchRows, Lo: 0, Hi: 64})
	if !reflect.DeepEqual(got.KeptRows, want.KeptRows) || !reflect.DeepEqual(got.KeptLabels, want.KeptLabels) {
		t.Fatalf("%s: the pool pages %v %v, want %v %v", what, got.KeptRows, got.KeptLabels, want.KeptRows, want.KeptLabels)
	}
}

// A re-configure keeps the kept-row pool (re-admission re-ships the
// configure), and its dataset must be the one the pool's references index:
// the same message again, or a copy of its bytes at another address — what
// a TCP re-admission delivers — is accepted, the worker then reads the
// copy, and the pool pages the rows it kept before.
func TestWorkerReconfigureSameDatasetKeepsPool(t *testing.T) {
	for _, name := range []string{"same message", "copy"} {
		w, msg, page := reconfigured(t)
		again := msg
		if name == "copy" {
			again = bytes.Clone(msg)
		}
		if _, err := w.Handle(again); err != nil {
			t.Fatalf("%s: re-configure refused: %v", name, err)
		}
		if viewsOnThisHost() && !inMessage(w.rowGen.X.Data, again) {
			t.Fatalf("%s: the re-configured worker does not read the message it was sent", name)
		}
		samePage(t, w, page, name)
	}
}

// A re-configure whose dataset differs from the pool's — in dim, row count,
// one coordinate or one label — is refused with an error that names the
// pool, since the pool's indices would then name other rows; the rows kept
// before still page out unchanged.
func TestWorkerReconfigureOtherDatasetRefused(t *testing.T) {
	for _, c := range []struct {
		name   string
		change func(d *wire.Directive)
	}{
		{"dim", func(d *wire.Directive) { d.Rows.Dim = 2; d.Rows.Data = d.Rows.Data[:2*32] }},
		{"row count", func(d *wire.Directive) { d.Rows.Data = d.Rows.Data[:3*31]; d.Labels = d.Labels[:31] }},
		{"coordinate", func(d *wire.Directive) { d.Rows.Data[40] += 0.5 }},
		{"label", func(d *wire.Directive) { d.Labels[7]++ }},
	} {
		w, msg, page := reconfigured(t)
		d, err := wire.DecodeDirective(bytes.Clone(msg))
		if err != nil {
			t.Fatal(err)
		}
		c.change(d)
		_, err = w.Handle(wire.EncodeDirective(nil, d))
		if err == nil || !strings.Contains(err.Error(), "pool") {
			t.Errorf("%s: re-configure error %v, want a refusal naming the pool", c.name, err)
		}
		samePage(t, w, page, c.name)
	}
}
