package collect

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"repro/internal/attack"
	"repro/internal/stats"
	"repro/internal/stats/summary"
	"repro/internal/trim"
)

// Sampler draws one honest value from the data stream.
type Sampler func(rng *rand.Rand) float64

// PoolSampler samples uniformly with replacement from a fixed pool — the
// standard way the experiments turn a dataset column into a stream.
func PoolSampler(pool []float64) (Sampler, error) {
	if len(pool) == 0 {
		return nil, stats.ErrEmpty
	}
	return func(rng *rand.Rand) float64 {
		return pool[rng.Intn(len(pool))]
	}, nil
}

// Config parameterizes a scalar collection game.
type Config struct {
	Rounds int // number of rounds (the paper uses 20-25)
	Batch  int // honest values collected per round

	// AttackRatio is the poison budget per round relative to the honest
	// batch: poisonCount = round(AttackRatio · Batch).
	AttackRatio float64

	// Reference is the clean reference distribution that injection
	// percentiles resolve against (the publicly recognized data quality
	// standard's view of clean data).
	Reference []float64

	Honest    Sampler
	Collector trim.Strategy
	Adversary attack.Strategy

	// Quality is the agreed quality standard; ExcessMassQuality when nil.
	// When nil and summaries are active (the default), the engine scores
	// quality by rank queries against the round summary it already holds,
	// with no extra pass over the data.
	Quality QualityFn

	// TrimOnBatch selects the threshold semantics. The default (false)
	// follows §III-C: the threshold percentile resolves to a *value* on the
	// clean reference scale — the collector's strategy is "a trimming point
	// in the input domain", so everything above that value is removed
	// regardless of how much poison inflates the batch. With true, the
	// percentile is taken over the received batch instead, i.e. the
	// collector "trims the same amount of data" every round (Fig 3 step 4).
	// The two readings are both present in the paper; see EXPERIMENTS.md.
	TrimOnBatch bool

	// ExactQuantiles forces the legacy copy-and-sort resolution of
	// per-round quantile queries. The default (false) resolves them against
	// ε-approximate mergeable summaries (internal/stats/summary), which
	// turns the per-round threshold cost from O(n log n) into O(1/ε)
	// queries over an O(n) incremental build. See DESIGN.md §5.
	ExactQuantiles bool

	// SummaryEpsilon is the rank-error budget ε of the per-round and
	// per-game summaries; summary.DefaultEpsilon when 0.
	SummaryEpsilon float64

	// FocusTighten/FocusWidth are the adaptive-ε focus knobs of the sharded
	// and cluster games (wire v6; plain Run ignores them). With Tighten > 1,
	// each round's shard streams keep Tighten× denser rank coverage in a
	// ±Width percentile window around the previous round's threshold
	// percentile (round 1 anchors on its own), so threshold queries resolve
	// Tighten× more precisely where the trim decision actually lands, at an
	// O(Tighten·Width/ε) entry overhead instead of a global ε cut. Width 0
	// with Tighten > 1 selects the default ±0.05. The knobs shape the
	// sketches, so they are part of a checkpoint's configuration
	// fingerprint.
	FocusTighten int
	FocusWidth   float64

	// OnRound, when non-nil, is invoked after each round is posted to the
	// board. Black-box experiments use it to feed attacker-side survival
	// feedback (attack.Probing.Observe); monitoring uses it for progress.
	OnRound func(RoundRecord)

	Rng *rand.Rand
}

func (c *Config) validate() error { return c.validateMode(false) }

// validateMode validates the config for central (shardLocal = false) or
// shard-local generation. The shard-local data plane ignores Honest and
// Rng (shards sample the shared pool from derived streams) but cannot
// serve slice-based quality standards — the coordinator never holds raw
// values.
func (c *Config) validateMode(shardLocal bool) error {
	if c.Rounds <= 0 {
		return fmt.Errorf("collect: rounds = %d", c.Rounds)
	}
	if c.Batch <= 0 {
		return fmt.Errorf("collect: batch = %d", c.Batch)
	}
	if c.AttackRatio < 0 || math.IsNaN(c.AttackRatio) {
		return fmt.Errorf("collect: attack ratio = %v", c.AttackRatio)
	}
	if len(c.Reference) == 0 {
		return fmt.Errorf("collect: empty reference distribution")
	}
	// A scalar worker refuses a reference holding NaN at configure.
	if slices.ContainsFunc(c.Reference, math.IsNaN) {
		return fmt.Errorf("collect: Reference holds NaN")
	}
	if c.Collector == nil || c.Adversary == nil {
		return fmt.Errorf("collect: nil strategy")
	}
	// Every stream of the game, the coordinator's and each worker's, is
	// built at the budget ResolveEpsilon resolves; refuse one it refuses
	// before any stream is built.
	if _, err := summary.ResolveEpsilon(c.SummaryEpsilon); err != nil {
		return fmt.Errorf("collect: SummaryEpsilon: %w", err)
	}
	if shardLocal {
		if c.Quality != nil {
			return fmt.Errorf("collect: shard-local generation serves only summary-native quality standards (Quality must be nil)")
		}
		return nil
	}
	if c.Honest == nil {
		return fmt.Errorf("collect: nil honest sampler")
	}
	if c.Rng == nil {
		return fmt.Errorf("collect: nil rng")
	}
	return nil
}

// poisonPerRound returns the per-round poison budget.
func (c *Config) poisonPerRound() int {
	return int(math.Round(c.AttackRatio * float64(c.Batch)))
}

// Result of a scalar collection game.
type Result struct {
	Board Board

	// Received is the game-long mergeable summary of every value that
	// arrived (honest and poison), built incrementally by absorbing each
	// round's summary. Nil under ExactQuantiles. Downstream estimators can
	// query any percentile (Received.Query) or the mean (Received.Mean) of
	// the full received stream from it without the engine having buffered
	// a single value.
	Received *summary.Stream

	// Kept is the game-long mergeable summary of every retained value —
	// the stream downstream mean/quantile estimators consume without the
	// engine ever buffering a value. Nil under ExactQuantiles. Its count
	// and sum are exact (cluster workers ship them alongside each sketch),
	// so KeptMean is exact and KeptQuantile is within the summary ε.
	Kept *summary.Stream

	// ClusterStats carries the loss, membership, egress and per-phase
	// timing account of a cluster run (all zero for in-process games).
	ClusterStats
}

// KeptMean estimates the mean of the retained pool, exact from the Kept
// stream's running sum. NaN when nothing was kept or the game ran under
// ExactQuantiles (which carries no Kept stream).
func (r *Result) KeptMean() float64 {
	if r.Kept == nil {
		return math.NaN()
	}
	return r.Kept.Mean()
}

// KeptQuantile estimates the q-th quantile of the retained pool within the
// summary ε. NaN when nothing was kept or the game ran under
// ExactQuantiles (which carries no Kept stream).
func (r *Result) KeptQuantile(q float64) float64 {
	if r.Kept == nil {
		return math.NaN()
	}
	return r.Kept.Query(q)
}

// drawArrivals draws one round's arrivals: cfg.Batch honest values followed
// by poisonCount poison values placed at reference percentiles drawn from
// inject. Returns the values (poison in the tail) and the summed injection
// percentile.
func drawArrivals(cfg *Config, inject func(*rand.Rand) float64, ref []float64, jscale float64, poisonCount int) (values []float64, pctSum float64) {
	values = make([]float64, 0, cfg.Batch+poisonCount)
	for i := 0; i < cfg.Batch; i++ {
		values = append(values, cfg.Honest(cfg.Rng))
	}
	for i := 0; i < poisonCount; i++ {
		pct := inject(cfg.Rng)
		pctSum += pct
		// Tie-breaking jitter: identical colluding values would sit in
		// one degenerate quantile atom (and be trivially detectable);
		// the jitter is ~10⁻⁶ of the data range, statistically inert.
		values = append(values, stats.QuantileSorted(ref, pct)+(cfg.Rng.Float64()-0.5)*jscale)
	}
	return values, pctSum
}

// Run plays the scalar collection game: each round the collector sets a
// threshold, honest values and poison values arrive, the collector trims
// everything above the threshold percentile of the received batch, and the
// round is posted to the public board.
func Run(cfg Config) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg.Collector.Reset()
	cfg.Adversary.Reset()
	quality := cfg.Quality
	if quality == nil {
		quality = ExcessMassQuality
	}
	ref := sortedCopy(cfg.Reference)
	baselineQ := quality(cleanBatch(cfg), ref)

	res := &Result{}
	poisonCount := cfg.poisonPerRound()
	jscale := jitterScale(ref)

	roundLen := cfg.Batch + poisonCount
	if !cfg.ExactQuantiles {
		var err error
		if res.Received, err = summary.New(cfg.SummaryEpsilon, cfg.Rounds*roundLen); err != nil {
			return nil, err
		}
		if res.Kept, err = summary.New(cfg.SummaryEpsilon, cfg.Rounds*roundLen); err != nil {
			return nil, err
		}
	}

	for r := 1; r <= cfg.Rounds; r++ {
		thresholdPct := cfg.Collector.Threshold(r, res.Board.collectorView())
		inject := cfg.Adversary.Injection(r, res.Board.adversaryView())

		values, pctSum := drawArrivals(&cfg, inject, ref, jscale, poisonCount)
		poisonStart := cfg.Batch

		// One pass builds the round summary; every per-round quantile and
		// rank question below resolves against it instead of re-sorting.
		var roundSum *summary.Stream
		if !cfg.ExactQuantiles {
			var err error
			if roundSum, err = summary.New(cfg.SummaryEpsilon, roundLen); err != nil {
				return nil, err
			}
			for _, v := range values {
				roundSum.Push(v)
			}
		}

		// Resolve the threshold percentile to a value (see TrimOnBatch).
		var thresholdValue float64
		switch {
		case !cfg.TrimOnBatch:
			thresholdValue = stats.QuantileSorted(ref, thresholdPct)
		case roundSum != nil:
			thresholdValue = roundSum.Query(thresholdPct)
		default:
			thresholdValue = stats.Quantile(values, thresholdPct)
		}
		rec := RoundRecord{
			Round:           r,
			ThresholdPct:    thresholdPct,
			ThresholdValue:  thresholdValue,
			BaselineQuality: baselineQ,
		}
		if cfg.Quality == nil && roundSum != nil {
			rec.Quality = ExcessMassQualitySummary(roundSum.Snapshot(), ref)
		} else {
			rec.Quality = quality(values, ref)
		}
		if poisonCount > 0 {
			rec.MeanInjectionPct = pctSum / float64(poisonCount)
		} else {
			rec.MeanInjectionPct = math.NaN()
		}
		for i, v := range values {
			kept := v <= thresholdValue
			isPoison := i >= poisonStart
			switch {
			case kept && isPoison:
				rec.PoisonKept++
			case kept:
				rec.HonestKept++
			case isPoison:
				rec.PoisonTrimmed++
			default:
				rec.HonestTrimmed++
			}
			if kept && res.Kept != nil {
				res.Kept.Push(v)
			}
		}
		if res.Received != nil {
			res.Received.AbsorbStream(roundSum)
		}
		res.Board.Post(rec)
		if cfg.OnRound != nil {
			cfg.OnRound(rec)
		}
	}
	return res, nil
}

// cleanBatch draws one poison-free batch to establish the baseline quality
// Quality_Evaluation(X_0).
func cleanBatch(cfg Config) []float64 {
	xs := make([]float64, cfg.Batch)
	for i := range xs {
		xs[i] = cfg.Honest(cfg.Rng)
	}
	return xs
}
