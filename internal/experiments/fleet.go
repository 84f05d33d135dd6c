package experiments

import (
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/attack"
	"repro/internal/cluster"
	"repro/internal/collect"
	"repro/internal/fleet"
	"repro/internal/stats"
	"repro/internal/stats/summary"
	"repro/internal/trim"
)

// FaultToleranceRow is one variant's outcome in the fleet fault-tolerance
// study: what a worker loss (and optional re-join or coordinator resume)
// does to the game, measured against the uninterrupted shard-local
// reference.
type FaultToleranceRow struct {
	Variant string

	// LostRound / RejoinRound: when the worker left and rejoined the
	// membership (0 = never). FinalEpoch counts the membership changes;
	// WholeSince is the first round the live set was whole for good (0 =
	// ended degraded).
	LostRound   int
	RejoinRound int
	FinalEpoch  int
	WholeSince  int

	// RoundsDiverged counts records that differ from the reference;
	// MaxDriftDegraded is the largest per-round threshold drift among them,
	// in reference-rank space — the price of playing rounds under a
	// degraded membership.
	RoundsDiverged   int
	MaxDriftDegraded float64

	// PostRecoveryMatch reports record-for-record equality with the
	// reference from WholeSince on (vacuously false when never whole
	// again); PreLossMatch the same for the rounds before the loss.
	PreLossMatch      bool
	PostRecoveryMatch bool

	// KeptMeanDelta is |kept-pool mean − reference kept-pool mean|: the
	// residual estimator damage of the degraded window (exactly 0 for the
	// resume variant, which replays no round degraded).
	KeptMeanDelta float64
}

// FaultToleranceResult is the kill/re-join/resume drift study of the fleet
// runtime (DESIGN.md §8, EXPERIMENTS.md).
type FaultToleranceResult struct {
	Workers int
	Rounds  int
	Batch   int
	Ratio   float64
	Rows    []FaultToleranceRow
}

// FaultTolerance runs the fault-tolerance study: the same shard-local
// scalar cluster game uninterrupted, with a permanent worker loss, with
// loss + re-join after one and after three degraded rounds, and resumed
// from a mid-game checkpoint. Strategies are board-oblivious (static
// collector, stationary adversary), so post-recovery records must equal the
// reference exactly — the study quantifies what happens in between.
func FaultTolerance(sc Scale, workers int) (*FaultToleranceResult, error) {
	if workers <= 1 {
		workers = 3
	}
	const ratio = 0.2
	batch := sc.Batch * 10
	rounds := sc.Rounds
	failAfter := rounds / 3
	ref := stats.NormalSlice(stats.NewRand(sc.Seed), 5000, 0, 1)
	refSorted := append([]float64(nil), ref...)
	sort.Float64s(refSorted)
	gen := &collect.ShardGen{MasterSeed: sc.Seed}

	mkCfg := func() (collect.Config, error) {
		static, err := trim.NewStatic("s", 0.9)
		if err != nil {
			return collect.Config{}, err
		}
		adv, err := attack.NewRange("baseline", 0.9, 1)
		if err != nil {
			return collect.Config{}, err
		}
		return collect.Config{
			Rounds: rounds, Batch: batch, AttackRatio: ratio,
			Reference: ref,
			Collector: static, Adversary: adv,
			TrimOnBatch: true,
		}, nil
	}

	res := &FaultToleranceResult{Workers: workers, Rounds: rounds, Batch: batch, Ratio: ratio}

	refCfg, err := mkCfg()
	if err != nil {
		return nil, err
	}
	reference, err := collect.RunSharded(collect.ShardedConfig{Config: refCfg, Shards: workers, Gen: gen})
	if err != nil {
		return nil, err
	}

	score := func(variant string, out *collect.Result) {
		row := FaultToleranceRow{
			Variant:    variant,
			FinalEpoch: len(out.FleetEvents),
			WholeSince: out.WholeSince,
		}
		if row.WholeSince == 0 && len(out.FleetEvents) == 0 {
			// In-process engines carry no membership; they are whole by
			// construction.
			row.WholeSince = 1
		}
		for _, ev := range out.FleetEvents {
			switch ev.Kind {
			case fleet.EventDrop:
				if row.LostRound == 0 {
					row.LostRound = ev.Round
				}
			case fleet.EventAdmit:
				row.RejoinRound = ev.Round
			}
		}
		firstLoss := rounds + 1
		if row.LostRound > 0 {
			firstLoss = row.LostRound
		}
		row.PreLossMatch = true
		row.PostRecoveryMatch = row.WholeSince > 0
		for i, rec := range out.Board.Records {
			want := reference.Board.Records[i]
			if rec.Equal(want) {
				continue
			}
			row.RoundsDiverged++
			ra := stats.PercentileRankSorted(refSorted, rec.ThresholdValue)
			rb := stats.PercentileRankSorted(refSorted, want.ThresholdValue)
			if d := ra - rb; d > row.MaxDriftDegraded {
				row.MaxDriftDegraded = d
			} else if -d > row.MaxDriftDegraded {
				row.MaxDriftDegraded = -d
			}
			if rec.Round < firstLoss {
				row.PreLossMatch = false
			}
			if row.WholeSince > 0 && rec.Round >= row.WholeSince {
				row.PostRecoveryMatch = false
			}
		}
		d := out.KeptMean() - reference.KeptMean()
		if d < 0 {
			d = -d
		}
		row.KeptMeanDelta = d
		res.Rows = append(res.Rows, row)
	}

	score("uninterrupted", reference)

	type scenario struct {
		name         string
		respawnAfter int // 0: never
	}
	for _, s := range []scenario{
		{"kill-forever", 0},
		{"rejoin-j1", failAfter + 1},
		{"rejoin-j3", failAfter + 3},
	} {
		cfg, err := mkCfg()
		if err != nil {
			return nil, err
		}
		lb := cluster.NewLoopback(workers)
		ccfg := collect.ClusterConfig{
			Config:    cfg,
			Transport: lb,
			Gen:       gen,
			Fleet:     &fleet.Config{Rejoin: true},
		}
		played := 0
		ccfg.OnRound = func(collect.RoundRecord) {
			played++
			if played == failAfter {
				lb.Fail(1)
			}
			if s.respawnAfter > 0 && played == s.respawnAfter {
				lb.Respawn(1)
			}
		}
		out, err := collect.RunCluster(ccfg)
		if err != nil {
			return nil, err
		}
		score(s.name, out)
	}

	// Resume: checkpoint an uninterrupted cluster run, then finish the game
	// from a mid-flight snapshot with a fresh coordinator and transport.
	dir, err := os.MkdirTemp("", "trimlab-fleet-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	every := failAfter
	if every < 1 {
		every = 1
	}
	ck, err := fleet.NewCheckpointer(dir, every)
	if err != nil {
		return nil, err
	}
	cfg, err := mkCfg()
	if err != nil {
		return nil, err
	}
	if _, err := collect.RunCluster(collect.ClusterConfig{
		Config: cfg, Transport: cluster.NewLoopback(workers), Gen: gen, Checkpoint: ck,
	}); err != nil {
		return nil, err
	}
	snap, _, err := fleet.LoadLatest(dir)
	if err != nil {
		return nil, err
	}
	cfg, err = mkCfg()
	if err != nil {
		return nil, err
	}
	resumed, err := collect.RunCluster(collect.ClusterConfig{
		Config: cfg, Transport: cluster.NewLoopback(workers), Gen: gen, Resume: snap,
	})
	if err != nil {
		return nil, err
	}
	score(fmt.Sprintf("resume-r%d", snap.NextRound), resumed)

	return res, nil
}

// Print emits the study.
func (r *FaultToleranceResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Fleet fault tolerance (%d workers, %d rounds x batch %d, ratio %.2g, eps %.3g)\n",
		r.Workers, r.Rounds, r.Batch, r.Ratio, summary.DefaultEpsilon)
	fmt.Fprintf(w, "%-14s %-6s %-8s %-7s %-7s %-9s %-10s %-9s %-10s %-12s\n",
		"variant", "lost", "rejoin", "whole", "epochs", "diverged", "max drift", "pre-loss", "post-rec", "kept-mean d")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-14s %-6d %-8d %-7d %-7d %-9d %-10.5f %-9v %-10v %-12.6f\n",
			row.Variant, row.LostRound, row.RejoinRound, row.WholeSince, row.FinalEpoch,
			row.RoundsDiverged, row.MaxDriftDegraded, row.PreLossMatch, row.PostRecoveryMatch,
			row.KeptMeanDelta)
	}
}
