package collect

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/stats"
)

// benchClusterRound runs full game rounds over the loopback cluster at the
// heavy per-round batch shared by every engine benchmark, reporting the
// coordinator's per-round directive egress alongside the timing. With
// withObs the full observability stack rides along — metrics registry,
// event logger, ring — so BenchmarkClusterRoundObs prices the
// instrumentation against the unobserved BenchmarkClusterRound.
func benchClusterRound(b *testing.B, workers int, withObs bool) {
	ref := stats.NormalSlice(stats.NewRand(1), 5000, 0, 1)
	var egressPerRound float64
	for i := 0; i < b.N; i++ {
		static, err := newStaticForBench()
		if err != nil {
			b.Fatal(err)
		}
		adv, err := newPointForBench()
		if err != nil {
			b.Fatal(err)
		}
		cfg := ClusterConfig{
			Config: Config{
				Rounds: 3, Batch: 100000, AttackRatio: 0.2,
				Reference: ref,
				Collector: static, Adversary: adv,
				TrimOnBatch: true,
			},
			Transport: cluster.NewLoopback(workers),
			Gen:       &ShardGen{MasterSeed: 1},
		}
		if withObs {
			ring := obs.NewRing(256)
			cfg.Log = obs.NewLogger(ring.Sink())
			cfg.Metrics = obs.NewRegistry()
		}
		res, err := RunCluster(cfg)
		if err != nil {
			b.Fatal(err)
		}
		egressPerRound = float64(res.EgressBytes-res.EgressConfigBytes) / float64(cfg.Rounds)
	}
	b.ReportMetric(egressPerRound, "egressB/round")
}

// BenchmarkClusterRound measures the cluster game — worker-side generation,
// the wire encode/decode and the two-phase fan-out on top of
// BenchmarkRunSharded's raw goroutine fan-out. Workers draw their own
// arrivals from derived seed streams and the coordinator broadcasts O(1)
// seed directives: per-round egress is O(workers) (a few hundred bytes),
// independent of the batch.
//
// Run with: go test ./internal/collect -bench=ClusterRound -benchmem
func BenchmarkClusterRound(b *testing.B) {
	for _, workers := range []int{4, 16} {
		b.Run(fmt.Sprintf("Workers%d", workers), func(b *testing.B) {
			benchClusterRound(b, workers, false)
		})
	}
}

// BenchmarkClusterRoundObs is BenchmarkClusterRound with the full
// observability stack attached (registry + logger + ring). The CI overhead
// gate (scripts/obs_overhead.sh) compares it against the unobserved
// baseline and fails if instrumentation costs more than a few percent.
func BenchmarkClusterRoundObs(b *testing.B) {
	for _, workers := range []int{4, 16} {
		b.Run(fmt.Sprintf("Workers%d", workers), func(b *testing.B) {
			benchClusterRound(b, workers, true)
		})
	}
}

// benchClusterRoundLatency runs the latency-dominated shard-local game —
// small batch, 5 ms injected per-call latency (cluster.WithDelay) — and
// reports ms/round. This is the pair the pipelining claim rests on: the
// unpipelined schedule pays two fan-out RTTs per round, the pipelined one
// pays one (round r+1's generate rides on round r's classify), so under
// injected latency the pipelined ms/round is ~half.
func benchClusterRoundLatency(b *testing.B, pipeline bool) {
	const rounds = 20
	ref := stats.NormalSlice(stats.NewRand(1), 5000, 0, 1)
	var perRound float64
	for i := 0; i < b.N; i++ {
		static, err := newStaticForBench()
		if err != nil {
			b.Fatal(err)
		}
		adv, err := newPointForBench()
		if err != nil {
			b.Fatal(err)
		}
		res, err := RunCluster(ClusterConfig{
			Config: Config{
				Rounds: rounds, Batch: 2000, AttackRatio: 0.2,
				Reference: ref,
				Collector: static, Adversary: adv,
				TrimOnBatch: true,
			},
			Transport: cluster.WithDelay(cluster.NewLoopback(2), 5*time.Millisecond),
			Gen:       &ShardGen{MasterSeed: 1},
			Pipeline:  pipeline,
		})
		if err != nil {
			b.Fatal(err)
		}
		perRound = float64(res.Timing.PerRound().Microseconds()) / 1000
	}
	b.ReportMetric(perRound, "ms/round")
}

// BenchmarkClusterRoundDelayed is the unpipelined half of the latency
// pair: two 5 ms fan-outs per round (~10 ms/round floor).
func BenchmarkClusterRoundDelayed(b *testing.B) { benchClusterRoundLatency(b, false) }

// BenchmarkClusterRoundPipelined is the pipelined half: one combined
// fan-out per steady-state round (~5 ms/round floor) — the ≥1.5× ms/round
// win over BenchmarkClusterRoundDelayed claimed in EXPERIMENTS.md.
func BenchmarkClusterRoundPipelined(b *testing.B) { benchClusterRoundLatency(b, true) }
