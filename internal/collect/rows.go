package collect

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/arrival"
	"repro/internal/attack"
	"repro/internal/dataset"
	"repro/internal/stats"
	"repro/internal/stats/summary"
	"repro/internal/trim"
)

// RowConfig parameterizes the row-based collection game that feeds the ML
// experiments (Fig 4, 5, 7, 8). The scalar the game trims on is each row's
// Euclidean distance from the collector's robust accepted-data center — the
// paper's distance-based sanitization [14] with positions expressed as
// distance percentiles.
type RowConfig struct {
	Rounds      int
	Batch       int     // honest rows per round
	AttackRatio float64 // poisonCount = round(AttackRatio · Batch)

	Data *dataset.Dataset // honest pool; also defines the clean reference

	Collector trim.Strategy
	Adversary attack.Strategy

	// PoisonLabel is attached to poison rows in labeled games; use −1 to
	// give each poison row a random existing class (targeted label noise).
	PoisonLabel int

	Quality QualityFn // ExcessMassQuality when nil

	// TrimOnBatch selects threshold semantics; see collect.Config.
	TrimOnBatch bool

	// ExactQuantiles forces the legacy path: retain every accepted row and
	// re-sort each coordinate per round for the robust center, and sort the
	// full distance scale per round. The default (false) keeps one
	// streaming quantile summary per coordinate of the accepted pool and a
	// per-round distance summary instead — O(dim/ε) memory and no per-round
	// sort, regardless of how large the accepted pool grows. See
	// DESIGN.md §5.
	ExactQuantiles bool

	// SummaryEpsilon is the rank-error budget ε of the streaming summaries;
	// summary.DefaultEpsilon when 0.
	SummaryEpsilon float64

	// OnRound, when non-nil, observes each posted record — the test hook
	// chaos schedules key off.
	OnRound func(RoundRecord)

	Rng *rand.Rand
}

func (c *RowConfig) validate() error { return c.validateMode(false) }

// validateMode validates the config for central or shard-local generation;
// see Config.validateMode for the shard-local constraints.
func (c *RowConfig) validateMode(shardLocal bool) error {
	if c.Rounds <= 0 || c.Batch <= 0 {
		return fmt.Errorf("collect: rounds %d / batch %d", c.Rounds, c.Batch)
	}
	if c.AttackRatio < 0 || math.IsNaN(c.AttackRatio) {
		return fmt.Errorf("collect: attack ratio = %v", c.AttackRatio)
	}
	if c.Data == nil || c.Data.Len() == 0 {
		return fmt.Errorf("collect: empty dataset")
	}
	if c.Collector == nil || c.Adversary == nil {
		return fmt.Errorf("collect: nil strategy")
	}
	if c.SummaryEpsilon < 0 || c.SummaryEpsilon >= 1 {
		return fmt.Errorf("collect: summary epsilon = %v", c.SummaryEpsilon)
	}
	if shardLocal {
		if c.Quality != nil {
			return fmt.Errorf("collect: shard-local generation serves only summary-native quality standards (Quality must be nil)")
		}
		return nil
	}
	if c.Rng == nil {
		return fmt.Errorf("collect: nil rng")
	}
	return nil
}

// RowResult of a row-based collection game.
type RowResult struct {
	Board Board
	// Kept pools every retained row across rounds. Labels are carried when
	// the source dataset is labeled. Shard-local cluster games hold kept
	// rows worker-side and materialize Kept only on request
	// (RowClusterConfig.CollectKept) via the paged end-of-game fetch;
	// otherwise it stays empty and PoolRows is the manifest.
	Kept *dataset.Dataset
	// KeptPoison counts poison rows that survived trimming.
	KeptPoison int
	// PoolRows is the per-leaf manifest of worker-held kept-row pools at
	// game end (leaf order; empty for the in-process RunRows, where Kept
	// is materialized directly).
	PoolRows []int
	// ClusterStats carries the loss, membership, egress and per-phase
	// timing account of a cluster run (all zero for in-process games).
	ClusterStats
}

// acceptedCenter tracks the collector's robust reference center — the
// coordinate-wise median of accepted rows — in one of two modes: streaming
// per-coordinate quantile summaries (default; O(dim/ε) memory, O(dim)
// amortized per accepted row) or the legacy exact mode that retains the
// whole pool and re-sorts every coordinate each round (O(|accepted| · dim ·
// log |accepted|) per round, the hot-path regression this refactor
// removes).
type acceptedCenter struct {
	vec  *summary.Vector // streaming mode
	pool [][]float64     // exact mode
}

func newAcceptedCenter(cfg *RowConfig, dim int) (*acceptedCenter, error) {
	if cfg.ExactQuantiles {
		return &acceptedCenter{pool: make([][]float64, 0, cfg.Batch*(cfg.Rounds+1))}, nil
	}
	vec, err := summary.NewVector(dim, cfg.SummaryEpsilon, cfg.Batch*(cfg.Rounds+1))
	if err != nil {
		return nil, err
	}
	return &acceptedCenter{vec: vec}, nil
}

func (c *acceptedCenter) accept(row []float64) {
	if c.vec != nil {
		c.vec.PushRow(row) // dimension is fixed by construction
		return
	}
	c.pool = append(c.pool, row)
}

func (c *acceptedCenter) center(buf []float64) []float64 {
	if c.vec != nil {
		return c.vec.Medians(buf)
	}
	return coordMedian(c.pool, buf)
}

// RunRows plays the collection game over dataset rows.
func RunRows(cfg RowConfig) (*RowResult, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg.Collector.Reset()
	cfg.Adversary.Reset()
	quality := cfg.Quality
	if quality == nil {
		quality = ExcessMassQuality
	}

	// Clean reference: the public quality standard's center is the robust
	// coordinate-wise median of clean data, and distances from it define
	// the percentile scale poison positions resolve against. Using one
	// center for both injection and trimming keeps the two parties'
	// percentile languages consistent (complete information, §III-A). This
	// is one-time setup over the clean dataset, so it stays exact in both
	// modes.
	center := coordMedian(cfg.Data.X, nil)
	refDistances := make([]float64, cfg.Data.Len())
	for i, row := range cfg.Data.X {
		refDistances[i] = stats.Euclidean(row, center)
	}
	refSorted := sortedCopy(refDistances)
	baselineQ := quality(sampleDistances(cfg.Rng, cfg.Batch, refSorted), refSorted)

	poisonCount := int(math.Round(cfg.AttackRatio * float64(cfg.Batch)))

	res := &RowResult{Kept: &dataset.Dataset{
		Name:     cfg.Data.Name + "-collected",
		Clusters: cfg.Data.Clusters,
	}}
	if cfg.Data.Labeled() {
		res.Kept.Y = []int{}
	}

	// The collector's reference center follows Kloft & Laskov's online
	// centroid model (the paper's distance-based sanitization [14]),
	// hardened against drift: it is the coordinate-wise *median* of
	// accepted data, seeded from the clean initial round X0 that also
	// anchors the quality baseline. A mean would compound one-directional
	// poisoning round over round; the median bounds the drift by the
	// retained-poison fraction.
	accepted, err := newAcceptedCenter(&cfg, len(center))
	if err != nil {
		return nil, err
	}
	for i := 0; i < cfg.Batch; i++ {
		accepted.accept(cfg.Data.X[cfg.Rng.Intn(cfg.Data.Len())])
	}
	refCentroid := append([]float64(nil), center...)

	roundLen := cfg.Batch + poisonCount
	for r := 1; r <= cfg.Rounds; r++ {
		thresholdPct := cfg.Collector.Threshold(r, res.Board.collectorView())
		inject := cfg.Adversary.Injection(r, res.Board.adversaryView())

		type arrivalRow struct {
			row    []float64
			label  int
			poison bool
		}
		arrivals := make([]arrivalRow, 0, roundLen)
		for i := 0; i < cfg.Batch; i++ {
			j := cfg.Rng.Intn(cfg.Data.Len())
			a := arrivalRow{row: cfg.Data.X[j]}
			if cfg.Data.Labeled() {
				a.label = cfg.Data.Y[j]
			}
			arrivals = append(arrivals, a)
		}
		// White-box injection (§III-A): the adversary reads the collector's
		// current reference center off the public board and resolves its
		// percentile on the same scale the collector will trim with — the
		// distances of clean data from that center. The scale is summarized
		// once per round (the center moved, so it cannot be carried over);
		// every percentile below is then an O(1/ε) query instead of a
		// binary search over a freshly sorted copy.
		refCentroid = accepted.center(refCentroid)
		var roundScale []float64     // exact mode: sorted distances
		var scaleSum *summary.Stream // streaming mode: distance summary
		var jscale float64
		var scaleQ func(pct float64) float64
		if cfg.ExactQuantiles {
			roundScale = make([]float64, cfg.Data.Len())
			for i, row := range cfg.Data.X {
				roundScale[i] = stats.Euclidean(row, refCentroid)
			}
			stats.SortFloat64s(roundScale)
			jscale = jitterScale(roundScale)
			scaleQ = func(pct float64) float64 { return stats.QuantileSorted(roundScale, pct) }
		} else {
			if scaleSum, err = summary.New(cfg.SummaryEpsilon, cfg.Data.Len()); err != nil {
				return nil, err
			}
			for _, row := range cfg.Data.X {
				scaleSum.Push(stats.Euclidean(row, refCentroid))
			}
			jscale = jitterRange(scaleSum.Min(), scaleSum.Max())
			scaleQ = scaleSum.Query
		}

		var pctSum float64
		for i := 0; i < poisonCount; i++ {
			pct := inject(cfg.Rng)
			pctSum += pct
			// Tie-breaking jitter on the distance scale; see scalar.go.
			dist := scaleQ(pct) + (cfg.Rng.Float64()-0.5)*jscale
			if dist < 0 {
				dist = 0
			}
			// Evasive adversaries mimic honest users (§III-A): each poison
			// row is a real honest row rescaled so its distance from the
			// collector's center hits the commanded percentile. The game-
			// relevant quantity (distance) is coordinated; everything else
			// looks like data, the counterfeit-record analogue of the input
			// manipulation attack.
			base := cfg.Data.X[cfg.Rng.Intn(cfg.Data.Len())]
			row, err := arrival.PoisonRow(refCentroid, base, dist)
			if err != nil {
				return nil, fmt.Errorf("collect: round %d: %w", r, err)
			}
			label := cfg.PoisonLabel
			if label < 0 && cfg.Data.Labeled() {
				label = cfg.Rng.Intn(cfg.Data.Clusters)
			}
			arrivals = append(arrivals, arrivalRow{row: row, label: label, poison: true})
		}
		dists := make([]float64, len(arrivals))
		var arrivalSum *summary.Stream
		if !cfg.ExactQuantiles {
			if arrivalSum, err = summary.New(cfg.SummaryEpsilon, roundLen); err != nil {
				return nil, err
			}
		}
		for i, a := range arrivals {
			dists[i] = stats.Euclidean(a.row, refCentroid)
			if arrivalSum != nil {
				arrivalSum.Push(dists[i])
			}
		}
		var thresholdValue float64
		switch {
		case !cfg.TrimOnBatch:
			thresholdValue = scaleQ(thresholdPct)
		case arrivalSum != nil:
			thresholdValue = arrivalSum.Query(thresholdPct)
		default:
			thresholdValue = stats.Quantile(dists, thresholdPct)
		}

		rec := RoundRecord{
			Round:           r,
			ThresholdPct:    thresholdPct,
			ThresholdValue:  thresholdValue,
			BaselineQuality: baselineQ,
		}
		if cfg.Quality == nil && arrivalSum != nil {
			rec.Quality = ExcessMassQualitySummary(arrivalSum.Snapshot(), refSorted)
		} else {
			rec.Quality = quality(dists, refSorted)
		}
		if poisonCount > 0 {
			rec.MeanInjectionPct = pctSum / float64(poisonCount)
		} else {
			rec.MeanInjectionPct = math.NaN()
		}
		for i, a := range arrivals {
			kept := dists[i] <= thresholdValue
			switch {
			case kept && a.poison:
				rec.PoisonKept++
			case kept:
				rec.HonestKept++
			case a.poison:
				rec.PoisonTrimmed++
			default:
				rec.HonestTrimmed++
			}
			if kept {
				res.Kept.X = append(res.Kept.X, append([]float64(nil), a.row...))
				if res.Kept.Y != nil {
					res.Kept.Y = append(res.Kept.Y, a.label)
				}
				if a.poison {
					res.KeptPoison++
				}
				accepted.accept(a.row)
			}
		}
		res.Board.Post(rec)
		if cfg.OnRound != nil {
			cfg.OnRound(rec)
		}
	}
	return res, nil
}

// coordMedian returns the coordinate-wise median of rows, reusing buf when
// it has the right dimension. It copies and sorts every coordinate, so on a
// growing pool it is the O(|rows| · dim · log |rows|) cost the streaming
// acceptedCenter replaces; it remains for one-time setup over clean data
// and for the ExactQuantiles reference path.
func coordMedian(rows [][]float64, buf []float64) []float64 {
	if len(rows) == 0 {
		return buf
	}
	dim := len(rows[0])
	out := buf
	if len(out) != dim {
		out = make([]float64, dim)
	}
	col := make([]float64, len(rows))
	for j := 0; j < dim; j++ {
		for i, r := range rows {
			col[i] = r[j]
		}
		out[j] = stats.Median(col)
	}
	return out
}

// sampleDistances draws one clean n-batch and returns its distances from
// the clean centroid, for the baseline quality. The rng is the caller's
// pre-game stream (the game RNG, or the derived (0, 0) cell in
// shard-local runs).
func sampleDistances(rng *rand.Rand, n int, refSorted []float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = refSorted[rng.Intn(len(refSorted))]
	}
	return out
}
