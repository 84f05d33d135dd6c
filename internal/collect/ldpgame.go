package collect

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"repro/internal/attack"
	"repro/internal/ldp"
	"repro/internal/stats"
	"repro/internal/trim"
)

// LDPConfig parameterizes the privacy-preserving collection game of §VI-E
// (Fig 9): honest users perturb their values with an LDP mechanism before
// reporting; attackers mount the input-manipulation attack (forge an input
// at a chosen percentile of the clean input distribution, then follow the
// protocol); the collector trims reports and estimates the mean.
type LDPConfig struct {
	Rounds      int
	Batch       int     // honest reports per round
	AttackRatio float64 // poisonCount = round(AttackRatio · Batch)

	// Inputs is the clean input pool (normalized to [−1, 1], e.g. Taxi).
	Inputs []float64

	Mechanism ldp.Mechanism

	Collector trim.Strategy
	Adversary attack.Strategy // injection percentiles resolve on Inputs

	// TrimOnBatch selects threshold semantics; see collect.Config. The
	// default resolves the threshold percentile on the clean perturbed
	// report reference.
	TrimOnBatch bool

	// OnRound, when non-nil, is invoked after each round is posted to the
	// board (monitoring, failure-injection tests); see Config.OnRound.
	OnRound func(RoundRecord)

	Rng *rand.Rand
}

func (c *LDPConfig) validate() error { return c.validateMode(false) }

// validateMode validates the config for central or shard-local generation;
// see Config.validateMode for the shard-local constraints.
func (c *LDPConfig) validateMode(shardLocal bool) error {
	if c.Rounds <= 0 || c.Batch <= 0 {
		return fmt.Errorf("collect: rounds %d / batch %d", c.Rounds, c.Batch)
	}
	if c.AttackRatio < 0 || math.IsNaN(c.AttackRatio) {
		return fmt.Errorf("collect: attack ratio = %v", c.AttackRatio)
	}
	if len(c.Inputs) == 0 {
		return fmt.Errorf("collect: empty input pool")
	}
	// An LDP worker refuses an input pool holding NaN at configure.
	if slices.ContainsFunc(c.Inputs, math.IsNaN) {
		return fmt.Errorf("collect: Inputs holds NaN")
	}
	if c.Mechanism == nil {
		return fmt.Errorf("collect: nil mechanism")
	}
	if c.Collector == nil || c.Adversary == nil {
		return fmt.Errorf("collect: nil strategy")
	}
	if !shardLocal && c.Rng == nil {
		return fmt.Errorf("collect: nil rng")
	}
	return nil
}

// LDPResult of a privacy-preserving collection game.
type LDPResult struct {
	Board Board
	// MeanEstimate is the mechanism's mean estimate over all retained
	// reports pooled across rounds.
	MeanEstimate float64
	// TrueMean is the mean of the honest inputs actually drawn, the target
	// Fig 9's MSE is measured against.
	TrueMean float64
	// AllReports pools every report (kept or trimmed) — the EMF baseline
	// consumes this, since it filters rather than trims. Only the
	// in-process RunLDP fills it: cluster runs never pool raw reports.
	AllReports []float64
	// ClusterStats carries the loss, membership, egress and per-phase
	// timing account of a cluster run (all zero for in-process games).
	ClusterStats
}

// RunLDP plays the LDP collection game. The non-deterministic utility of §V
// arises naturally here: the quality signal is computed from perturbed
// reports, so even a fully compliant adversary produces noisy quality.
func RunLDP(cfg LDPConfig) (*LDPResult, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg.Collector.Reset()
	cfg.Adversary.Reset()

	inputsSorted := sortedCopy(cfg.Inputs)
	poisonCount := int(math.Round(cfg.AttackRatio * float64(cfg.Batch)))

	// The report-space reference for quality evaluation: what clean
	// perturbed traffic looks like. One synthetic clean round suffices.
	cleanReports := make([]float64, cfg.Batch)
	for i := range cleanReports {
		x := cfg.Inputs[cfg.Rng.Intn(len(cfg.Inputs))]
		cleanReports[i] = cfg.Mechanism.Perturb(cfg.Rng, x)
	}
	refReports := sortedCopy(cleanReports)
	baselineQ := ExcessMassQuality(cleanReports, refReports)

	res := &LDPResult{}
	var kept []float64
	var honestSum float64
	var honestN int

	for r := 1; r <= cfg.Rounds; r++ {
		thresholdPct := cfg.Collector.Threshold(r, res.Board.collectorView())
		inject := cfg.Adversary.Injection(r, res.Board.adversaryView())

		reports := make([]float64, 0, cfg.Batch+poisonCount)
		for i := 0; i < cfg.Batch; i++ {
			x := cfg.Inputs[cfg.Rng.Intn(len(cfg.Inputs))]
			honestSum += x
			honestN++
			reports = append(reports, cfg.Mechanism.Perturb(cfg.Rng, x))
		}
		var pctSum float64
		poisonStart := len(reports)
		for i := 0; i < poisonCount; i++ {
			pct := inject(cfg.Rng)
			pctSum += pct
			forged := stats.QuantileSorted(inputsSorted, pct)
			m, err := ldp.NewInputManipulator(cfg.Mechanism, forged)
			if err != nil {
				return nil, err
			}
			reports = append(reports, m.Report(cfg.Rng))
		}

		var thresholdValue float64
		if cfg.TrimOnBatch {
			thresholdValue = stats.Quantile(reports, thresholdPct)
		} else {
			thresholdValue = stats.QuantileSorted(refReports, thresholdPct)
		}
		rec := RoundRecord{
			Round:           r,
			ThresholdPct:    thresholdPct,
			ThresholdValue:  thresholdValue,
			Quality:         ExcessMassQuality(reports, refReports),
			BaselineQuality: baselineQ,
		}
		if poisonCount > 0 {
			rec.MeanInjectionPct = pctSum / float64(poisonCount)
		} else {
			rec.MeanInjectionPct = math.NaN()
		}
		for i, v := range reports {
			keptNow := v <= thresholdValue
			isPoison := i >= poisonStart
			switch {
			case keptNow && isPoison:
				rec.PoisonKept++
			case keptNow:
				rec.HonestKept++
			case isPoison:
				rec.PoisonTrimmed++
			default:
				rec.HonestTrimmed++
			}
			if keptNow {
				kept = append(kept, v)
			}
		}
		res.AllReports = append(res.AllReports, reports...)
		res.Board.Post(rec)
		if cfg.OnRound != nil {
			cfg.OnRound(rec)
		}
	}
	res.MeanEstimate = cfg.Mechanism.MeanEstimate(kept)
	if honestN > 0 {
		res.TrueMean = honestSum / float64(honestN)
	}
	return res, nil
}
