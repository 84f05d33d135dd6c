package collect

import (
	"fmt"
	"testing"

	"repro/internal/attack"
	"repro/internal/dataset"
	"repro/internal/stats"
	"repro/internal/stats/summary"
	"repro/internal/trim"
)

func newStaticForBench() (trim.Strategy, error)  { return trim.NewStatic("s", 0.9) }
func newPointForBench() (attack.Strategy, error) { return attack.NewPoint("p", 0.99) }

func benchDataset(b *testing.B) *dataset.Dataset {
	b.Helper()
	return dataset.VehicleN(stats.NewRand(1), 2000)
}

func benchName(prefix string, n int) string { return fmt.Sprintf("%s%d", prefix, n) }

// The coordMedian hot-path regression, measured: the collector's robust
// center over a pool that grows by `batch` accepted rows per round.
//
//   - ExactResort is the seed behavior: every round re-sorts every
//     coordinate of the whole accepted pool (O(rounds · |pool| · dim ·
//     log |pool|) and a fresh column buffer per call).
//   - Streaming is the summary.Vector replacement: O(dim) amortized per
//     accepted row and O(dim/ε) per center query, independent of pool size.
//
// Run with: go test ./internal/collect -bench=CenterUpdate -benchmem
func BenchmarkCenterUpdate(b *testing.B) {
	const (
		rounds = 20
		batch  = 500
		dim    = 18 // vehicle-dataset dimensionality
	)
	rng := stats.NewRand(1)
	rows := make([][]float64, rounds*batch)
	for i := range rows {
		rows[i] = stats.NormalSlice(rng, dim, 0, 1)
	}

	b.Run("ExactResort", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pool := make([][]float64, 0, len(rows))
			var center []float64
			for r := 0; r < rounds; r++ {
				pool = append(pool, rows[r*batch:(r+1)*batch]...)
				center = coordMedian(pool, center)
			}
			_ = center
		}
	})
	b.Run("Streaming", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			vec, err := summary.NewVector(dim, 0, len(rows))
			if err != nil {
				b.Fatal(err)
			}
			var center []float64
			for r := 0; r < rounds; r++ {
				for _, row := range rows[r*batch : (r+1)*batch] {
					if err := vec.PushRow(row); err != nil {
						b.Fatal(err)
					}
				}
				center = vec.Medians(center)
			}
			_ = center
		}
	})
}

// Full row-game comparison: the seed's exact path (per-round coordinate
// re-sorts plus a full distance-scale sort) against the streaming-summary
// path, at a scale where the accepted pool dominates.
func BenchmarkRunRowsQuantilePath(b *testing.B) {
	run := func(b *testing.B, exact bool) {
		d := benchDataset(b)
		for i := 0; i < b.N; i++ {
			static, err := newStaticForBench()
			if err != nil {
				b.Fatal(err)
			}
			adv, err := newPointForBench()
			if err != nil {
				b.Fatal(err)
			}
			if _, err := RunRows(RowConfig{
				Rounds: 10, Batch: 400, AttackRatio: 0.2,
				Data: d, Collector: static, Adversary: adv,
				ExactQuantiles: exact,
				Rng:            stats.NewRand(int64(i)),
			}); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("Exact", func(b *testing.B) { run(b, true) })
	b.Run("Summary", func(b *testing.B) { run(b, false) })
}

// BenchmarkRunSharded measures the parallel fan-out at a heavy per-round
// batch where summary building dominates.
func BenchmarkRunSharded(b *testing.B) {
	for _, shards := range []int{1, 4, 8} {
		b.Run(benchName("Shards", shards), func(b *testing.B) {
			ref := stats.NormalSlice(stats.NewRand(1), 5000, 0, 1)
			for i := 0; i < b.N; i++ {
				static, err := newStaticForBench()
				if err != nil {
					b.Fatal(err)
				}
				adv, err := newPointForBench()
				if err != nil {
					b.Fatal(err)
				}
				if _, err := RunSharded(ShardedConfig{
					Config: Config{
						Rounds: 3, Batch: 100000, AttackRatio: 0.2,
						Reference: ref,
						Collector: static, Adversary: adv,
						TrimOnBatch: true,
					},
					Shards: shards,
					Gen:    &ShardGen{MasterSeed: int64(i)},
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
