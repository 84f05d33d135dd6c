package summary

import (
	"runtime"
	"sync"
	"testing"

	"repro/internal/stats"
)

// The ingest trajectory (ISSUE 8 / ROADMAP item 2): one op = absorbing
// benchPoints observations into a fresh stream, so points/sec =
// benchPoints / (ns_op · 1e-9). scripts/ingest_bench.sh converts and
// gates the batch-vs-single ratio in CI.
const benchPoints = 100000

func benchData() []float64 {
	rng := stats.NewRand(99)
	xs := make([]float64, benchPoints)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	return xs
}

// BenchmarkStreamPush is the pre-batch baseline: one Push per point.
func BenchmarkStreamPush(b *testing.B) {
	xs := benchData()
	b.SetBytes(benchPoints * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := New(0, benchPoints)
		if err != nil {
			b.Fatal(err)
		}
		for _, x := range xs {
			st.Push(x)
		}
		if st.Count() != benchPoints {
			b.Fatal("count mismatch")
		}
	}
}

// BenchmarkStreamPushBatch is the buffered path: pooled chunk sort + dedup
// + one carry per chunk.
func BenchmarkStreamPushBatch(b *testing.B) {
	xs := benchData()
	b.SetBytes(benchPoints * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := New(0, benchPoints)
		if err != nil {
			b.Fatal(err)
		}
		st.PushBatch(xs)
		if st.Count() != benchPoints {
			b.Fatal("count mismatch")
		}
	}
}

// BenchmarkStreamPushParallel is the worker's per-core schedule: the batch
// split into GOMAXPROCS sub-shards, each batch-pushed into its own stream
// concurrently, snapshots merged in sub order.
func BenchmarkStreamPushParallel(b *testing.B) {
	xs := benchData()
	subs := runtime.GOMAXPROCS(0)
	b.SetBytes(benchPoints * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snaps := make([]*Summary, subs)
		counts := make([]int, subs)
		var wg sync.WaitGroup
		for c := 0; c < subs; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				lo, hi := benchPoints*c/subs, benchPoints*(c+1)/subs
				st, err := New(0, hi-lo)
				if err != nil {
					panic(err)
				}
				st.PushBatch(xs[lo:hi])
				snaps[c], counts[c] = st.Snapshot(), st.Count()
			}(c)
		}
		wg.Wait()
		merged, total := &Summary{}, 0
		for c := range snaps {
			merged.Merge(snaps[c])
			total += counts[c]
		}
		if total != benchPoints {
			b.Fatal("count mismatch")
		}
	}
}
