package cluster

import (
	"slices"
	"testing"

	"repro/internal/attack"
	"repro/internal/stats"
	"repro/internal/stats/summary"
	"repro/internal/wire"
)

// bulkCell configures a scalar worker over a sorted N(0,1) reference of
// refN values and returns it with the encoded generate of one
// scalar-bulk-sized cell — 50,000 honest arrivals and 10,000 poison ones
// at uniform percentiles in [0.8, 1] — and the reference's 0.9 quantile as
// the threshold to classify it at.
func bulkCell(tb testing.TB, refN int) (w *Worker, gen []byte, threshold float64) {
	tb.Helper()
	rng := stats.NewRand(11)
	ref := make([]float64, refN)
	for i := range ref {
		ref[i] = rng.NormFloat64()
	}
	stats.SortFloat64s(ref)
	w = NewWorker(0)
	if _, err := w.Handle(wire.EncodeDirective(nil, &wire.Directive{Op: wire.OpConfigure, RefSorted: ref})); err != nil {
		tb.Fatal(err)
	}
	gen = wire.EncodeDirective(nil, &wire.Directive{Op: wire.OpGenerate, Round: 1, Gen: &wire.GenSpec{
		Cells:      []wire.Cell{{Seed: 12, HonestN: 50_000, PoisonN: 10_000}},
		InjectKind: byte(attack.SpecUniform), InjectLo: 0.8, InjectHi: 1,
		Jitter: 1e-6,
	}})
	return w, gen, stats.QuantileSorted(ref, 0.9)
}

func classifyAt(threshold float64) []byte {
	return wire.EncodeDirective(nil, &wire.Directive{Op: wire.OpClassify, Round: 1, Threshold: threshold})
}

// A scalar classify of a held 60,000-value cell ships the kept summary that
// one PushBatch of the kept values in held order builds, entry for entry.
// It weighs KeptCount, KeptSum is the held-order running sum, and the
// encoded reply stays under 16 KB: 14.2 KB with 1,402 entries, the round
// summary's size, where item-wise pushes made it 49.1 KB with 5,204. The
// kept values span more than one 32,768-value batch chunk.
func TestWorkerClassifyKeptSummary(t *testing.T) {
	w, gen, threshold := bulkCell(t, 100_000)
	if _, err := w.Handle(gen); err != nil {
		t.Fatal(err)
	}
	held := slices.Clone(w.dists)
	out, err := w.Handle(classifyAt(threshold))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := wire.DecodeReport(out)
	if err != nil {
		t.Fatal(err)
	}

	var kept []float64
	sum := 0.0
	for _, v := range held {
		if v <= threshold {
			kept = append(kept, v)
			sum += v
		}
	}
	if len(kept) <= 1<<15 {
		t.Fatalf("threshold keeps %d values, want more than one batch chunk", len(kept))
	}
	want, err := summary.New(0, len(held))
	if err != nil {
		t.Fatal(err)
	}
	want.PushBatch(kept)
	if rep.Kept == nil || !slices.Equal(rep.Kept.Entries(), want.Snapshot().Entries()) {
		t.Fatalf("kept summary differs from a PushBatch of the kept values in held order")
	}
	if rep.KeptCount != len(kept) || rep.Kept.TotalWeight() != float64(rep.KeptCount) {
		t.Errorf("KeptCount %d, kept summary weight %v, want both %d", rep.KeptCount, rep.Kept.TotalWeight(), len(kept))
	}
	if rep.KeptSum != sum {
		t.Errorf("KeptSum %v, want the held-order running sum %v", rep.KeptSum, sum)
	}
	if len(out) >= 16<<10 {
		t.Errorf("classify reply is %d B (kept summary %d entries), want under 16 KB", len(out), rep.Kept.Size())
	}
}

// BenchmarkWorkerClassify times one scalar worker's classify of a held
// scalar-bulk cell (bulkCell over a 1M-value reference, as the workload's
// pool): directive decode, the tally, the kept summary and the reply
// encode. Each iteration's generate runs outside the timer.
func BenchmarkWorkerClassify(b *testing.B) {
	w, gen, threshold := bulkCell(b, 1_000_000)
	classify := classifyAt(threshold)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if _, err := w.Handle(gen); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := w.Handle(classify); err != nil {
			b.Fatal(err)
		}
	}
}
