package collect

import (
	"math"
	"testing"

	"repro/internal/attack"
	"repro/internal/dataset"
	"repro/internal/stats"
	"repro/internal/trim"
)

// shardedConfig is baseConfig's game on the shard-local data plane, seeded
// from the same seed (the central Honest/Rng ride along unused).
func shardedConfig(t *testing.T, seed int64, shards int) ShardedConfig {
	t.Helper()
	return ShardedConfig{Config: baseConfig(t, seed), Shards: shards, Gen: &ShardGen{MasterSeed: seed}}
}

func TestRunShardedValidation(t *testing.T) {
	good := shardedConfig(t, 20, 4)
	bad := []func(*ShardedConfig){
		func(c *ShardedConfig) { c.Shards = -1 },
		func(c *ShardedConfig) { c.Shards = 0 },
		func(c *ShardedConfig) { c.Gen = nil },
		func(c *ShardedConfig) { c.ExactQuantiles = true },
		func(c *ShardedConfig) { c.Rounds = 0 },
		func(c *ShardedConfig) { c.SummaryEpsilon = 2 },
	}
	for i, mutate := range bad {
		cfg := good
		mutate(&cfg)
		if _, err := RunSharded(cfg); err == nil {
			t.Errorf("case %d should fail validation", i)
		}
	}
}

func TestRunShardedConservation(t *testing.T) {
	for _, shards := range []int{1, 3, 8} {
		cfg := shardedConfig(t, 21, shards)
		cfg.TrimOnBatch = true
		res, err := RunSharded(cfg)
		if err != nil {
			t.Fatal(err)
		}
		poisonCount := int(math.Round(cfg.AttackRatio * float64(cfg.Batch)))
		var kept int
		for _, rec := range res.Board.Records {
			if rec.HonestKept+rec.HonestTrimmed != cfg.Batch {
				t.Errorf("shards=%d round %d: honest accounting broken", shards, rec.Round)
			}
			if rec.PoisonKept+rec.PoisonTrimmed != poisonCount {
				t.Errorf("shards=%d round %d: poison accounting broken", shards, rec.Round)
			}
			kept += rec.HonestKept + rec.PoisonKept
		}
		// The Kept stream is the retained pool's record of truth; its
		// exact count must match the tallies.
		if res.Kept.Count() != kept {
			t.Errorf("shards=%d: Kept count %d, accounting %d", shards, res.Kept.Count(), kept)
		}
		if res.Received == nil {
			t.Fatalf("shards=%d: no received summary", shards)
		}
		if got, want := res.Received.Count(), 0; got == want {
			t.Errorf("shards=%d: received summary is empty", shards)
		}
	}
}

// The sharded game must agree with the unsharded summary game: the same
// game over arrivals drawn from the same reference — Run's on its central
// RNG, RunSharded's on derived per-shard streams — so thresholds stay
// within the rank-error budget plus batch sampling noise.
func TestRunShardedAgreesWithRun(t *testing.T) {
	cfg := baseConfig(t, 22)
	cfg.TrimOnBatch = true
	single, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	scfg := shardedConfig(t, 22, 5)
	scfg.TrimOnBatch = true
	sharded, err := RunSharded(scfg)
	if err != nil {
		t.Fatal(err)
	}
	refSorted := sortedCopy(cfg.Reference)
	for i := range single.Board.Records {
		a, b := single.Board.Records[i], sharded.Board.Records[i]
		if a.ThresholdPct != b.ThresholdPct {
			t.Fatalf("round %d: strategies diverged (%v vs %v)", i+1, a.ThresholdPct, b.ThresholdPct)
		}
		// Both thresholds are ε-approximate resolutions of the same
		// percentile over batches of the same game: their reference ranks
		// must be within the combined budget plus sampling noise.
		ra := stats.PercentileRankSorted(refSorted, a.ThresholdValue)
		rb := stats.PercentileRankSorted(refSorted, b.ThresholdValue)
		if math.Abs(ra-rb) > 0.05 {
			t.Errorf("round %d: threshold ranks %v vs %v diverged", i+1, ra, rb)
		}
	}
	// Aggregate outcomes stay close.
	if a, b := single.Board.PoisonRetention(), sharded.Board.PoisonRetention(); math.Abs(a-b) > 0.05 {
		t.Errorf("retention %v (single) vs %v (sharded)", a, b)
	}
}

func TestRunShardedDeterministic(t *testing.T) {
	run := func() *Result {
		cfg := shardedConfig(t, 23, 4)
		cfg.TrimOnBatch = true
		res, err := RunSharded(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	for i := range a.Board.Records {
		if a.Board.Records[i] != b.Board.Records[i] {
			t.Fatalf("round %d diverged between identical seeds", i+1)
		}
	}
}

// The exact and summary paths of the scalar game must agree on the game's
// observable outcomes within the rank-error budget.
func TestExactVsSummaryAgree(t *testing.T) {
	mk := func(exact bool) *Result {
		cfg := baseConfig(t, 24)
		cfg.TrimOnBatch = true
		cfg.ExactQuantiles = exact
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	exact, approx := mk(true), mk(false)
	if exact.Received != nil {
		t.Error("exact mode must not build a received summary")
	}
	if approx.Received == nil {
		t.Fatal("summary mode must build a received summary")
	}
	refSorted := sortedCopy(baseConfig(t, 24).Reference)
	for i := range exact.Board.Records {
		a, b := exact.Board.Records[i], approx.Board.Records[i]
		ra := stats.PercentileRankSorted(refSorted, a.ThresholdValue)
		rb := stats.PercentileRankSorted(refSorted, b.ThresholdValue)
		if math.Abs(ra-rb) > 0.05 {
			t.Errorf("round %d: threshold ranks %v (exact) vs %v (summary)", i+1, ra, rb)
		}
		if math.Abs(a.Quality-b.Quality) > 0.05 {
			t.Errorf("round %d: quality %v (exact) vs %v (summary)", i+1, a.Quality, b.Quality)
		}
	}
}

// Same agreement for the row game, where the summary path additionally
// replaces the exact coordinate-wise median of the accepted pool.
func TestRowsExactVsSummaryAgree(t *testing.T) {
	mk := func(exact bool) *RowResult {
		d := dataset.VehicleN(stats.NewRand(13), 400)
		static, err := trim.NewStatic("s", 0.9)
		if err != nil {
			t.Fatal(err)
		}
		adv, err := attack.NewPoint("p", 0.99)
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunRows(RowConfig{
			Rounds: 5, Batch: 100, AttackRatio: 0.2,
			Data: d, Collector: static, Adversary: adv,
			PoisonLabel:    -1,
			ExactQuantiles: exact,
			Rng:            stats.NewRand(25),
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	exact, approx := mk(true), mk(false)
	if math.Abs(exact.Board.PoisonRetention()-approx.Board.PoisonRetention()) > 0.05 {
		t.Errorf("retention %v (exact) vs %v (summary)",
			exact.Board.PoisonRetention(), approx.Board.PoisonRetention())
	}
	if math.Abs(exact.Board.HonestLoss()-approx.Board.HonestLoss()) > 0.05 {
		t.Errorf("loss %v (exact) vs %v (summary)",
			exact.Board.HonestLoss(), approx.Board.HonestLoss())
	}
}
