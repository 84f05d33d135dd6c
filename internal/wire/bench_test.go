package wire

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/stats/summary"
)

// gameSummary is the summary a worker ships for one cell of a round: the GK
// sketch of 60k N(0,1) draws at summary.DefaultEpsilon, built through the
// batch path the workers use.
func gameSummary(tb testing.TB) *summary.Summary {
	tb.Helper()
	rng := rand.New(rand.NewSource(5))
	values := make([]float64, 60_000)
	for i := range values {
		values[i] = rng.NormFloat64()
	}
	st, err := summary.New(summary.DefaultEpsilon, len(values))
	if err != nil {
		tb.Fatal(err)
	}
	st.PushBatch(values)
	return st.Snapshot()
}

// BenchmarkWireEncodeDecode measures the serialize/deserialize round trip of
// one quantile summary through the summary block codec every
// summary-bearing message nests, and reports it per entry (ns/entry, and
// B/entry of the encoded block). The cases are a game-shaped summary (gameSummary:
// compressed, unit weights) and uncompressed summaries of 1k and 100k
// distinct values — a small delta and a full-stream snapshot. It reports
// no MB/s: bytes per second of a compact block do not compare across
// layouts.
//
// Run with: go test ./internal/wire -run=NONE -bench=WireEncodeDecode -benchmem
//
// EXPERIMENTS.md ("Wire bytes study") records the per-entry figures of
// format 10 and format 11 on the same machine.
func BenchmarkWireEncodeDecode(b *testing.B) {
	names := []string{"game"}
	sums := []*summary.Summary{gameSummary(b)}
	for _, n := range []int{1_000, 100_000} {
		names = append(names, fmt.Sprintf("entries%d", n))
		sums = append(sums, distinctSummary(b, n))
	}
	for i, s := range sums {
		b.Run(names[i], func(b *testing.B) {
			n := float64(s.Size())
			buf := appendSummaryBlock(nil, s)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = appendSummaryBlock(buf[:0], s)
				if _, err := decodeSummaryBlock(buf); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*n), "ns/entry")
			b.ReportMetric(float64(len(buf))/n, "B/entry")
		})
	}
}

// distinctSummary is the exact summary of n distinct values.
func distinctSummary(tb testing.TB, n int) *summary.Summary {
	rng := rand.New(rand.NewSource(1))
	values := make([]float64, n)
	for i := range values {
		// Distinct by construction so the summary holds exactly n entries
		// (FromSorted collapses duplicates).
		values[i] = float64(i) + rng.Float64()*0.5
	}
	s := summary.FromUnsorted(values)
	if s.Size() != n {
		tb.Fatalf("summary size %d, want %d", s.Size(), n)
	}
	return s
}
