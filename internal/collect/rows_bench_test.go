package collect

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/stats"
)

// benchRowConfig builds the shared cluster row game for the rows gates at a
// given scale. Rows are drawn with replacement, so batch scales freely past
// the dataset size.
func benchRowConfig(b *testing.B, rounds, batch int) RowConfig {
	b.Helper()
	static, err := newStaticForBench()
	if err != nil {
		b.Fatal(err)
	}
	adv, err := newPointForBench()
	if err != nil {
		b.Fatal(err)
	}
	return RowConfig{
		Rounds: rounds, Batch: batch, AttackRatio: 0.2,
		Data:      dataset.VehicleN(stats.NewRand(7), 600),
		Collector: static, Adversary: adv,
		PoisonLabel: -1,
	}
}

// benchRowsRoundMem plays the cluster row game and reports the coordinator's
// retained heap once the game is over — the bytes the result pins after the
// loopback workers have dropped their pools at stop. With collectKept the
// coordinator materializes every kept row through the end-of-game fetch
// (the pre-worker-pool behavior, linear in total rows); without it the
// result holds only the board, the streaming summaries and the per-leaf
// manifest, so the metric must stay flat as rows grow. The GC fences make
// the HeapAlloc delta a retained-bytes measure rather than an allocation
// count.
func benchRowsRoundMem(b *testing.B, collectKept bool, rounds, batch int) {
	cfg := benchRowConfig(b, rounds, batch)
	var retained, egress float64
	for i := 0; i < b.N; i++ {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		res, err := RunClusterRows(RowClusterConfig{
			RowConfig:   cfg,
			Transport:   cluster.NewLoopback(4),
			Gen:         &ShardGen{MasterSeed: 11},
			CollectKept: collectKept,
		})
		if err != nil {
			b.Fatal(err)
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		if after.HeapAlloc > before.HeapAlloc {
			retained = float64(after.HeapAlloc - before.HeapAlloc)
		} else {
			retained = 0
		}
		egress = float64(res.EgressBytes-res.EgressConfigBytes) / float64(rounds)
		runtime.KeepAlive(res)
	}
	b.ReportMetric(retained, "coordB")
	b.ReportMetric(egress, "egressB/round")
}

// BenchmarkRowsRoundResident is the coordinator-resident baseline: kept rows
// are fetched back at game end, so the retained coordB metric grows linearly
// with total rows (Rows4x plays 4× the batch of Rows1x).
//
// Run with: go test ./internal/collect -bench=RowsRoundResident
func BenchmarkRowsRoundResident(b *testing.B) {
	b.Run("Rows1x", func(b *testing.B) { benchRowsRoundMem(b, true, 6, 500) })
	b.Run("Rows4x", func(b *testing.B) { benchRowsRoundMem(b, true, 6, 2000) })
}

// BenchmarkRowsRoundStored is the worker-held pool path (DESIGN.md §14):
// kept rows stay in the workers' rowstore pools and the coordinator keeps
// only O(dim/ε) summaries plus the per-leaf manifest, so coordB must stay
// flat between Rows1x and Rows4x — the gate scripts/rows_mem_bench.sh
// enforces. Per-round directive egress is O(dim), independent of batch, on
// both variants (the shard-local data plane), also recorded here.
func BenchmarkRowsRoundStored(b *testing.B) {
	b.Run("Rows1x", func(b *testing.B) { benchRowsRoundMem(b, false, 6, 500) })
	b.Run("Rows4x", func(b *testing.B) { benchRowsRoundMem(b, false, 6, 2000) })
}

// benchRowsRoundLatency runs the latency-dominated late-center row game —
// small batch, 5 ms injected per-call latency — and reports ms/round. The
// unpipelined schedule fans generate and classify separately (two RTTs per
// round); the pipelined schedule rides the next generation on each classify
// broadcast, so R rounds cost R+1 fan-outs instead of 2R and ms/round
// approaches one RTT.
func benchRowsRoundLatency(b *testing.B, pipeline bool) {
	cfg := benchRowConfig(b, 12, 100)
	var perRound float64
	for i := 0; i < b.N; i++ {
		res, err := RunClusterRows(RowClusterConfig{
			RowConfig:  cfg,
			Transport:  cluster.WithDelay(cluster.NewLoopback(2), 5*time.Millisecond),
			Gen:        &ShardGen{MasterSeed: 11},
			LateCenter: true,
			Pipeline:   pipeline,
		})
		if err != nil {
			b.Fatal(err)
		}
		perRound = float64(res.Timing.PerRound().Microseconds()) / 1000
	}
	b.ReportMetric(perRound, "ms/round")
}

// BenchmarkRowsRoundDelayed is the unpipelined half of the row latency
// pair: two 5 ms fan-outs per round (~10 ms/round floor).
func BenchmarkRowsRoundDelayed(b *testing.B) { benchRowsRoundLatency(b, false) }

// BenchmarkRowsRoundPipelined is the pipelined half: one combined fan-out
// per steady-state round (~5.4 ms/round floor at 12 rounds) — the ≥1.5×
// ms/round win over BenchmarkRowsRoundDelayed gated by
// scripts/rows_mem_bench.sh.
func BenchmarkRowsRoundPipelined(b *testing.B) { benchRowsRoundLatency(b, true) }
