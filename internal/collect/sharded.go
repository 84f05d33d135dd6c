package collect

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/arrival"
	"repro/internal/stats"
	"repro/internal/stats/summary"
	"repro/internal/wire"
)

// ShardedConfig parameterizes a sharded scalar collection game: the same
// game as Run, but each round's arrivals are handled by Shards parallel
// workers. Each worker draws its own slice of the round on the shard-local
// data plane (DESIGN.md §7) and builds an ε-approximate summary of it; the
// coordinator merges the shard summaries (ε_merge = max ε_i) to resolve the
// threshold and the quality score, then the workers classify their slices
// against the shared threshold. No worker ever sees another worker's values
// and the coordinator never sees raw values at all — the concrete scale-out
// shape for a collector serving arrivals too heavy for one machine. See
// DESIGN.md §5.
type ShardedConfig struct {
	Config

	// Shards is the number of parallel workers, at least 1. The shard count
	// shapes the merged summary's entries, so a run is a pure function of
	// (Gen.MasterSeed, Shards).
	Shards int

	// Gen seeds the shard-local data plane and is required: each shard
	// draws its slice of every round from a derived RNG stream. RunSharded
	// is the single-process reference a loopback or TCP cluster run with
	// the same Gen reproduces record for record.
	Gen *ShardGen
}

func (c *ShardedConfig) validate() error {
	if c.Shards < 1 {
		return fmt.Errorf("collect: shards = %d", c.Shards)
	}
	if c.ExactQuantiles {
		return fmt.Errorf("collect: sharded collection requires summaries (ExactQuantiles must be false)")
	}
	if c.Gen == nil {
		return fmt.Errorf("collect: sharded games run on the shard-local data plane: Gen (a ShardGen) is required")
	}
	if _, err := specInjector(c.Adversary); err != nil {
		return err
	}
	return c.Config.validateMode(true)
}

// RunSharded plays the scalar collection game with per-round sharded
// summary building: each shard generates its own arrivals from its derived
// seed stream, summarizes them with arrival.Summarize and classifies them
// with arrival.Keep — the kernel cluster.Worker runs — while this loop
// keeps the coordinator's part (threshold, shard-order merge, board) to
// itself, so it checks the cluster engine from outside.
func RunSharded(cfg ShardedConfig) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	shards := cfg.Shards
	cfg.Collector.Reset()
	cfg.Adversary.Reset()
	ref := sortedCopy(cfg.Reference)
	gen := &arrival.Scalar{Ref: ref}
	si, _ := specInjector(cfg.Adversary) // validated above

	// The baseline quality is scored the same way rounds are: from one
	// clean batch, drawn from the reference on the coordinator's pre-game
	// stream (cell shard 0 / round 0).
	baseline, _, err := gen.Draw(cfg.Gen.preRand(), arrival.Spec{HonestN: cfg.Batch})
	if err != nil {
		return nil, err
	}
	baselineQ := ExcessMassQuality(baseline, ref)

	poisonCount := cfg.poisonPerRound()
	jscale := jitterScale(ref)
	roundLen := cfg.Batch + poisonCount

	res := &Result{}
	if res.Received, err = summary.New(cfg.SummaryEpsilon, cfg.Rounds*roundLen); err != nil {
		return nil, err
	}
	if res.Kept, err = summary.New(cfg.SummaryEpsilon, cfg.Rounds*roundLen); err != nil {
		return nil, err
	}

	type shardOut struct {
		values     []float64 // the shard's slice of the round's arrivals; phase 3 compacts it
		poisonFrom int       // index in values where poison starts
		pctSum     float64   // Σ injection percentiles this shard drew
		sum        *summary.Stream
		counts     wire.Counts     // the shard's classify tallies
		kept       *summary.Stream // the shard's kept values
		err        error
	}
	outs := make([]shardOut, shards)

	// The focus anchor schedule mirrors engine.lastPct.
	ft, fw := focusParams(cfg.FocusTighten, cfg.FocusWidth)
	var lastPct float64
	haveLast := false

	for r := 1; r <= cfg.Rounds; r++ {
		thresholdPct := cfg.Collector.Threshold(r, res.Board.collectorView())
		focus := arrival.Focus{Pct: thresholdPct, Width: fw, Tighten: ft}
		if haveLast {
			focus.Pct = lastPct
		}

		// Phase 1: every shard generates its slice of the round's arrivals
		// from its derived seed and summarizes it, in parallel.
		inject := si.InjectionSpec(r, res.Board.adversaryView())
		specs := genSpecs(cfg.Batch, poisonCount, inject, jscale, shards)
		var wg sync.WaitGroup
		for s := 0; s < shards; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				out := shardOut{poisonFrom: specs[s].HonestN}
				out.values, out.pctSum, out.err = gen.Draw(stats.NewRand(cfg.Gen.seed(s, r)), specs[s])
				if out.err == nil {
					out.sum, out.err = arrival.Summarize(out.values, cfg.SummaryEpsilon, len(out.values), focus)
				}
				outs[s] = out
			}(s)
		}
		wg.Wait()

		// Phase 2: the coordinator merges shard summaries in shard order
		// (deterministic) and resolves threshold and quality from the
		// merged summary alone.
		var totalPct float64
		snaps := make([]*summary.Summary, shards)
		for s := 0; s < shards; s++ {
			if outs[s].err != nil {
				return nil, outs[s].err
			}
			totalPct += outs[s].pctSum
			snaps[s] = outs[s].sum.Snapshot()
		}
		merged := summary.MergeAll(snaps)
		var thresholdValue float64
		if cfg.TrimOnBatch {
			thresholdValue = merged.Query(thresholdPct)
		} else {
			thresholdValue = stats.QuantileSorted(ref, thresholdPct)
		}

		rec := RoundRecord{
			Round:           r,
			ThresholdPct:    thresholdPct,
			ThresholdValue:  thresholdValue,
			Quality:         ExcessMassQualitySummary(merged, ref),
			BaselineQuality: baselineQ,
		}
		if poisonCount > 0 {
			rec.MeanInjectionPct = totalPct / float64(poisonCount)
		} else {
			rec.MeanInjectionPct = math.NaN()
		}

		// Phase 3: shards classify their slices against the shared
		// threshold with cluster.Worker's kernel and stream, and the
		// coordinator reduces the counts.
		for s := 0; s < shards; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				counts, kept := arrival.Keep(outs[s].values, []arrival.Segment{{PoisonFrom: outs[s].poisonFrom}}, thresholdValue)
				outs[s].counts = counts
				outs[s].kept, outs[s].err = arrival.Summarize(kept, cfg.SummaryEpsilon, len(outs[s].values), arrival.Focus{})
			}(s)
		}
		wg.Wait()
		// The shard streams carry exact counts and sums; ship them with the
		// merged summary so the game-long estimators stay exact.
		var mCount int
		var mSum float64
		for s := 0; s < shards; s++ {
			if outs[s].err != nil {
				return nil, outs[s].err
			}
			addCounts(&rec, outs[s].counts)
			res.Kept.AbsorbStream(outs[s].kept)
			mCount += outs[s].sum.Count()
			mSum += outs[s].sum.Sum()
		}
		res.Received.AbsorbCounted(merged, mCount, mSum)
		res.Board.Post(rec)
		lastPct, haveLast = thresholdPct, true
		if cfg.OnRound != nil {
			cfg.OnRound(rec)
		}
	}
	return res, nil
}

// shardBounds splits n items into near-equal contiguous ranges.
func shardBounds(n, shards, s int) (lo, hi int) {
	lo = n * s / shards
	hi = n * (s + 1) / shards
	return lo, hi
}
