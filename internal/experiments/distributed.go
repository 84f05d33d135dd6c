package experiments

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/attack"
	"repro/internal/cluster"
	"repro/internal/collect"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/stats/summary"
	"repro/internal/trim"
)

// DistributedRow is one variant's outcome in the distributed-collection
// study.
type DistributedRow struct {
	Variant string
	// Millis is the wall time of the full game; RoundsPerSec the resulting
	// round throughput.
	Millis       float64
	RoundsPerSec float64
	// MaxRankDelta is the largest per-round threshold difference from the
	// unsharded run, in reference-rank space. The sharded and cluster
	// variants draw their arrivals from derived per-shard streams, not the
	// unsharded run's RNG, so it carries the batch sampling noise on top of
	// the summary ε budget. A sharded-N row and its local-N row play the
	// same arrivals through the same kernel, so they read the same delta.
	MaxRankDelta    float64
	PoisonRetention float64
	HonestLoss      float64
	// KeptMean/KeptP99 are read from the game's kept-pool summary
	// estimators (Result.KeptMean/KeptQuantile) — no variant buffers a
	// single retained value.
	KeptMean float64
	KeptP99  float64
	// EgressPerRound is the coordinator's outbound directive traffic per
	// round in bytes (0 for in-process variants); EgressConfig the
	// one-time configure shipment. Per-round egress is O(workers),
	// independent of the batch: the coordinator never ships an arrival.
	EgressPerRound float64
	EgressConfig   float64
}

// DistributedResult compares the same heavy-batch scalar game run
// unsharded, sharded in-process (goroutine fan-out), and across a loopback
// worker cluster (full wire protocol, two fan-outs per round; the
// coordinator ships O(1) seed directives). Both sharded shapes play the
// shard-local data plane from one master seed: each shard generates its
// own arrivals from derived seed streams, so a sharded-N row and its
// local-N row are the same game, record for record. It is the
// reproduction's distributed-collector study: the cluster must track the
// unsharded thresholds within tolerance while its per-round coordinator
// egress stays O(workers).
type DistributedResult struct {
	Rounds      int
	Batch       int
	AttackRatio float64
	Epsilon     float64
	Rows        []DistributedRow
}

// Distributed runs the study at the given worker counts (default 2, 4, 8).
func Distributed(sc Scale, workerCounts []int) (*DistributedResult, error) {
	const attackRatio = 0.2
	if len(workerCounts) == 0 {
		workerCounts = []int{2, 4, 8}
	}
	batch := sc.Batch * 100 // collection scale, not paper scale
	rounds := sc.Rounds

	ref := stats.NormalSlice(stats.NewRand(sc.Seed), 5000, 0, 1)
	honest, err := collect.PoolSampler(ref)
	if err != nil {
		return nil, err
	}
	refSorted := append([]float64(nil), ref...)
	sort.Float64s(refSorted)

	res := &DistributedResult{
		Rounds: rounds, Batch: batch, AttackRatio: attackRatio,
		Epsilon: summary.DefaultEpsilon,
	}

	baseCfg := func() (collect.Config, error) {
		static, err := trim.NewStatic("s", 0.9)
		if err != nil {
			return collect.Config{}, err
		}
		adv, err := attack.NewPoint("p", 0.99)
		if err != nil {
			return collect.Config{}, err
		}
		return collect.Config{
			Rounds: rounds, Batch: batch, AttackRatio: attackRatio,
			Reference: ref, Honest: honest,
			Collector: static, Adversary: adv,
			TrimOnBatch: true,
			Rng:         stats.NewRand(sc.Seed + 1),
		}, nil
	}

	timed := func(run func(collect.Config) (*collect.Result, error)) (*collect.Result, float64, error) {
		cfg, err := baseCfg()
		if err != nil {
			return nil, 0, err
		}
		start := obs.Now()
		out, err := run(cfg)
		return out, float64(obs.Since(start).Microseconds()) / 1000, err
	}

	record := func(variant string, out *collect.Result, millis float64, baseline *collect.Result) {
		var maxDelta float64
		for i, rec := range out.Board.Records {
			ra := stats.PercentileRankSorted(refSorted, rec.ThresholdValue)
			rb := stats.PercentileRankSorted(refSorted, baseline.Board.Records[i].ThresholdValue)
			if d := ra - rb; d > maxDelta {
				maxDelta = d
			} else if -d > maxDelta {
				maxDelta = -d
			}
		}
		res.Rows = append(res.Rows, DistributedRow{
			Variant:         variant,
			Millis:          millis,
			RoundsPerSec:    float64(rounds) / (millis / 1000),
			MaxRankDelta:    maxDelta,
			PoisonRetention: out.Board.PoisonRetention(),
			HonestLoss:      out.Board.HonestLoss(),
			KeptMean:        out.KeptMean(),
			KeptP99:         out.KeptQuantile(0.99),
			EgressPerRound:  float64(out.EgressBytes-out.EgressConfigBytes) / float64(rounds),
			EgressConfig:    float64(out.EgressConfigBytes),
		})
	}

	baseline, baseMillis, err := timed(collect.Run)
	if err != nil {
		return nil, err
	}
	record("unsharded", baseline, baseMillis, baseline)

	// Shards generate their own arrivals; the central Honest/Rng are unused
	// (a run is a pure function of the master seed and the shard count).
	gen := &collect.ShardGen{MasterSeed: sc.Seed + 1}
	for _, n := range workerCounts {
		out, millis, err := timed(func(cfg collect.Config) (*collect.Result, error) {
			return collect.RunSharded(collect.ShardedConfig{Config: cfg, Shards: n, Gen: gen})
		})
		if err != nil {
			return nil, err
		}
		record(fmt.Sprintf("sharded-%d", n), out, millis, baseline)
	}
	for _, n := range workerCounts {
		out, millis, err := timed(func(cfg collect.Config) (*collect.Result, error) {
			return collect.RunCluster(collect.ClusterConfig{
				Config:    cfg,
				Transport: cluster.NewLoopback(n),
				Gen:       gen,
			})
		})
		if err != nil {
			return nil, err
		}
		record(fmt.Sprintf("local-%d", n), out, millis, baseline)
	}
	return res, nil
}

// Print emits the study.
func (r *DistributedResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Distributed collection (batch %d, %d rounds, ratio %.2g, eps %.3g)\n",
		r.Batch, r.Rounds, r.AttackRatio, r.Epsilon)
	fmt.Fprintf(w, "%-12s %-9s %-9s %-15s %-14s %-11s %-10s %-10s %-14s %-12s\n",
		"variant", "millis", "rounds/s", "max rank delta", "poison kept", "honest lost",
		"kept mean", "kept p99", "egress B/round", "config B")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-12s %-9.1f %-9.1f %-15.5f %-14.5f %-11.5f %-10.4f %-10.4f %-14.0f %-12.0f\n",
			row.Variant, row.Millis, row.RoundsPerSec, row.MaxRankDelta,
			row.PoisonRetention, row.HonestLoss, row.KeptMean, row.KeptP99,
			row.EgressPerRound, row.EgressConfig)
	}
}
