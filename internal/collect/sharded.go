package collect

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"repro/internal/arrival"
	"repro/internal/attack"
	"repro/internal/stats"
	"repro/internal/stats/summary"
	"repro/internal/wire"
)

// ShardedConfig parameterizes a sharded scalar collection game: the same
// game as Run, but each round's arrivals are handled by Shards parallel
// workers. Each worker builds an ε-approximate summary of its slice of the
// stream; the coordinator merges the shard summaries (ε_merge = max ε_i) to
// resolve the threshold and the quality score, then the workers classify
// their slices against the shared threshold. No worker ever sees another
// worker's values and the coordinator never sees raw values at all — the
// concrete scale-out shape for a collector serving arrivals too heavy for
// one machine. See DESIGN.md §5, and §7 for the shard-local data plane.
type ShardedConfig struct {
	Config

	// Shards is the number of parallel workers; GOMAXPROCS when 0. Note
	// that the shard count shapes the merged summary's entries, so results
	// are reproducible given (seed, Shards) — pin Shards explicitly for
	// cross-machine reproducibility; 0 ties the ε-level details of each
	// run to the machine's core count.
	Shards int

	// Gen, when non-nil, switches the game to shard-local arrival
	// generation: each shard draws its own slice of every round from a
	// derived RNG stream instead of slicing one centrally drawn batch.
	// RunSharded with a Gen is the single-process reference a loopback or
	// TCP cluster run with the same Gen reproduces record for record.
	Gen *ShardGen
}

func (c *ShardedConfig) validate() error {
	if c.Shards < 0 {
		return fmt.Errorf("collect: shards = %d", c.Shards)
	}
	if c.ExactQuantiles {
		return fmt.Errorf("collect: sharded collection requires summaries (ExactQuantiles must be false)")
	}
	if c.Gen != nil {
		if _, err := specInjector(c.Adversary); err != nil {
			return err
		}
		return c.Config.validateMode(true)
	}
	return c.Config.validate()
}

// RunSharded plays the scalar collection game with per-round sharded
// summary building. Without a ShardGen, arrival generation stays on the
// coordinator (it owns the single RNG, so a run is reproducible given the
// seed and the shard count); with one, each shard generates its own
// arrivals from its derived seed stream and the coordinator never touches
// a raw value. Summary construction and trim classification always run on
// the shard workers.
func RunSharded(cfg ShardedConfig) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	shards := cfg.Shards
	if shards == 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	cfg.Collector.Reset()
	cfg.Adversary.Reset()
	ref := sortedCopy(cfg.Reference)

	var gen *arrival.Scalar
	var si attack.SpecInjector
	if cfg.Gen != nil {
		gen = &arrival.Scalar{Ref: ref}
		si, _ = specInjector(cfg.Adversary) // validated above
	}

	// The baseline quality is scored the same way rounds are: from one
	// clean batch. Shard-local games draw it from the reference on the
	// coordinator's pre-game stream (cell shard 0 / round 0); central
	// games draw it from the honest sampler on the game RNG.
	var baseline []float64
	if gen != nil {
		var err error
		if baseline, _, err = gen.Draw(cfg.Gen.preRand(), arrival.Spec{HonestN: cfg.Batch}); err != nil {
			return nil, err
		}
	} else {
		baseline = cleanBatch(cfg.Config)
	}
	var baselineQ float64
	if cfg.Quality != nil {
		baselineQ = cfg.Quality(baseline, ref)
	} else {
		baselineQ = ExcessMassQuality(baseline, ref)
	}

	poisonCount := cfg.poisonPerRound()
	jscale := jitterScale(ref)
	roundLen := cfg.Batch + poisonCount

	res := &Result{}
	var err error
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

	// Shard streams ingest via SetFocus+PushBatch in lockstep with
	// cluster.Worker (batch and item-wise ingestion are rank-equivalent but
	// not bit-identical, so the reference and the cluster must agree on the
	// API); the focus anchor schedule mirrors engine.lastPct.
	ft, fw := focusParams(cfg.FocusTighten, cfg.FocusWidth)
	var lastPct float64
	haveLast := false

	for r := 1; r <= cfg.Rounds; r++ {
		thresholdPct := cfg.Collector.Threshold(r, res.Board.collectorView())
		anchor := thresholdPct
		if haveLast {
			anchor = lastPct
		}

		// Phase 1: every shard obtains and summarizes its slice of the
		// round's arrivals in parallel — by local generation from its
		// derived seed, or by slicing the centrally drawn batch.
		var totalPct float64
		var wg sync.WaitGroup
		if gen != nil {
			inject := si.InjectionSpec(r, res.Board.adversaryView())
			specs := genSpecs(cfg.Batch, poisonCount, inject, jscale, shards)
			for s := 0; s < shards; s++ {
				wg.Add(1)
				go func(s int) {
					defer wg.Done()
					rng := stats.NewRand(cfg.Gen.seed(s, r))
					values, pctSum, err := gen.Draw(rng, specs[s])
					if err != nil {
						outs[s] = shardOut{err: err}
						return
					}
					sum, serr := summary.New(cfg.SummaryEpsilon, len(values))
					if serr != nil { // unreachable: epsilon validated above
						panic(serr)
					}
					if ft > 1 {
						sum.SetFocus(anchor, fw, ft)
					}
					sum.PushBatch(values)
					outs[s] = shardOut{
						values: values, poisonFrom: specs[s].HonestN,
						pctSum: pctSum, sum: sum,
					}
				}(s)
			}
		} else {
			inject := cfg.Adversary.Injection(r, res.Board.adversaryView())
			values, pctSum := drawArrivals(&cfg.Config, inject, ref, jscale, poisonCount)
			totalPct = pctSum
			poisonStart := cfg.Batch
			for s := 0; s < shards; s++ {
				lo, hi := shardBounds(len(values), shards, s)
				wg.Add(1)
				go func(s, lo, hi int) {
					defer wg.Done()
					sum, serr := summary.New(cfg.SummaryEpsilon, hi-lo)
					if serr != nil { // unreachable: epsilon validated above
						panic(serr)
					}
					if ft > 1 {
						sum.SetFocus(anchor, fw, ft)
					}
					sum.PushBatch(values[lo:hi])
					outs[s] = shardOut{
						values:     values[lo:hi],
						poisonFrom: slicePoisonFrom(poisonStart, lo, hi),
						sum:        sum,
					}
				}(s, lo, hi)
			}
		}
		wg.Wait()
		for s := 0; s < shards; s++ {
			if outs[s].err != nil {
				return nil, outs[s].err
			}
			totalPct += outs[s].pctSum
		}

		// Phase 2: the coordinator merges shard summaries in shard order
		// (deterministic) and resolves threshold and quality from the
		// merged summary alone.
		merged := outs[0].sum.Snapshot().Clone()
		for s := 1; s < shards; s++ {
			merged.Merge(outs[s].sum.Snapshot())
		}
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
			BaselineQuality: baselineQ,
		}
		if cfg.Quality != nil {
			all := make([]float64, 0, roundLen)
			for s := 0; s < shards; s++ {
				all = append(all, outs[s].values...)
			}
			rec.Quality = cfg.Quality(all, ref)
		} else {
			rec.Quality = ExcessMassQualitySummary(merged, ref)
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
				st, serr := summary.New(cfg.SummaryEpsilon, len(outs[s].values))
				if serr != nil { // unreachable: epsilon validated above
					panic(serr)
				}
				st.PushBatch(kept)
				outs[s].counts, outs[s].kept = counts, st
			}(s)
		}
		wg.Wait()
		for s := 0; s < shards; s++ {
			addCounts(&rec, outs[s].counts)
			res.Kept.AbsorbStream(outs[s].kept)
		}
		// The shard streams carry exact counts and sums; ship them with the
		// merged summary so the game-long estimators stay exact.
		var mCount int
		var mSum float64
		for s := 0; s < shards; s++ {
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

// slicePoisonFrom maps the global poison start index onto one shard's
// [lo, hi) slice: the index within the slice where poison begins (= slice
// length when the slice is all honest).
func slicePoisonFrom(poisonStart, lo, hi int) int {
	pf := poisonStart - lo
	if pf < 0 {
		pf = 0
	}
	if pf > hi-lo {
		pf = hi - lo
	}
	return pf
}

// shardBounds splits n items into near-equal contiguous ranges.
func shardBounds(n, shards, s int) (lo, hi int) {
	lo = n * s / shards
	hi = n * (s + 1) / shards
	return lo, hi
}
