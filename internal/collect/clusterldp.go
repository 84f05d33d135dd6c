package collect

import (
	"fmt"
	"math"

	"repro/internal/arrival"
	"repro/internal/cluster"
	"repro/internal/fleet"
	"repro/internal/ldp"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/stats/summary"
	"repro/internal/wire"
)

// LDPClusterConfig parameterizes the privacy-preserving collection game
// distributed over a cluster.Transport. The data plane is shard-local: the
// configure fan-out ships the clean input pool, sorted once on the
// coordinator, and the mechanism's wire code once, and each worker
// perturbs its own honest draws and runs its own input-manipulation poison
// from its derived seed stream — the per-round directive is O(1). The mean estimate is reduced from the workers' exact
// (kept sum, kept count) aggregates, so the mechanism must implement
// ldp.SumMeanEstimator — no raw report ever returns from a worker — and be
// wire-codable (arrival.MechToWire).
type LDPClusterConfig struct {
	LDPConfig

	// SummaryEpsilon is the rank-error budget of the per-round report
	// summaries; summary.DefaultEpsilon when 0. (LDPConfig has no summary
	// knob — the single-process game resolves thresholds exactly.)
	SummaryEpsilon float64

	// Transport connects the coordinator to its workers (shard order =
	// worker order).
	Transport cluster.Transport

	// Gen seeds the shard-local report generation and is required (see
	// ShardGen).
	Gen *ShardGen

	// SubShards splits each worker's shard-local generation into this many
	// per-core sub-shards, generated and summarized in parallel goroutines
	// and merged locally in sub order. See ClusterConfig.SubShards.
	SubShards int

	// FocusTighten / FocusWidth adaptively tighten the report summaries
	// around the current trim threshold. See Config.FocusTighten.
	FocusTighten int
	FocusWidth   float64

	// Pipeline enables the overlapped round schedule: like the scalar game
	// (see ClusterConfig.Pipeline), the LDP game's next-round generation
	// depends only on derived seed streams and the published threshold, so
	// round r+1's generate rides on round r's classify broadcast and the
	// board is reproduced record for record.
	Pipeline bool

	// Log receives shard-loss and lifecycle events; nil discards. Failure
	// semantics match ClusterConfig: drop-and-continue.
	Log *obs.Logger

	// Metrics, when non-nil, receives the run's live metrics. See
	// ClusterConfig.Metrics.
	Metrics *obs.Registry

	// Fleet enables the supervision runtime — heartbeats, membership
	// epochs, worker re-join at round boundaries. See ClusterConfig.Fleet.
	Fleet *fleet.Config
}

// opts is the config's view of the knobs every cluster game shares.
func (c *LDPClusterConfig) opts() *clusterOpts {
	return &clusterOpts{
		transport: c.Transport, gen: c.Gen, adversary: c.Adversary,
		rounds: c.Rounds, batch: c.Batch, ratio: c.AttackRatio, epsilon: c.SummaryEpsilon,
		subShards: c.SubShards, focusTighten: c.FocusTighten, focusWidth: c.FocusWidth, pipeline: c.Pipeline,
		log: c.Log, metrics: c.Metrics, fleet: c.Fleet,
	}
}

func (c *LDPClusterConfig) validate() (*clusterOpts, error) {
	o := c.opts()
	if err := o.validate(); err != nil {
		return nil, err
	}
	if err := c.LDPConfig.validateMode(true); err != nil {
		return nil, err
	}
	if _, ok := c.Mechanism.(ldp.SumMeanEstimator); !ok {
		return nil, fmt.Errorf("collect: cluster LDP requires a sum-decomposable mean estimator (ldp.SumMeanEstimator); %T is not", c.Mechanism)
	}
	if _, _, _, err := arrival.MechToWire(c.Mechanism); err != nil {
		return nil, err
	}
	return o, nil
}

// ldpGame adapts the LDP collection game to the round engine: perturbed
// reports, thresholds on the clean perturbed reference, and exact
// (sum, count) kept aggregates the mean estimate reduces from.
type ldpGame struct {
	cfg        *LDPClusterConfig
	res        *LDPResult
	inputs     []float64 // sorted clean input pool, the one pool workers sample: a view of the configure message
	refReports []float64 // sorted clean perturbed reference

	// Game-long aggregates.
	keptSum   float64
	keptN     int
	honestSum float64
	honestN   int
}

func (g *ldpGame) genRound(int) roundGen { return roundGen{} }
func (g *ldpGame) speculative() bool     { return true }

// foldGen accumulates the exact honest-input aggregates behind a generated
// shard — the TrueMean the estimate is measured against.
func (g *ldpGame) foldGen(rep *wire.Report, spec arrival.Spec) {
	g.honestSum += rep.InputSum
	g.honestN += spec.HonestN
}

func (g *ldpGame) threshold(pct float64, merged *summary.Summary) float64 {
	if g.cfg.TrimOnBatch {
		return merged.Query(pct)
	}
	return stats.QuantileSorted(g.refReports, pct)
}

func (g *ldpGame) quality(merged *summary.Summary) float64 {
	return ExcessMassQualitySummary(merged, g.refReports)
}

// foldClassify reduces the exact kept aggregates the mean estimate is
// built from.
func (g *ldpGame) foldClassify(_ *engine, _ int, _ *RoundRecord, rep *wire.Report) error {
	g.keptSum += rep.KeptSum
	g.keptN += rep.KeptCount
	return nil
}

func (g *ldpGame) endRound(*summary.Summary, int, float64) {}

// RunClusterLDP plays the LDP collection game across a worker cluster.
func RunClusterLDP(cfg LDPClusterConfig) (*LDPResult, error) {
	g, en, err := newLDPCluster(cfg)
	if err != nil {
		return nil, err
	}
	defer en.pool.stop()
	if err := en.run(); err != nil {
		return nil, err
	}
	res := g.res
	res.MeanEstimate = g.cfg.Mechanism.(ldp.SumMeanEstimator).MeanEstimateFromSum(g.keptSum, g.keptN)
	if g.honestN > 0 {
		res.TrueMean = g.honestSum / float64(g.honestN)
	}
	en.pool.finishStats(&res.ClusterStats)
	return res, nil
}

// newLDPCluster validates cfg and sets the LDP cluster game up: the input
// pool is sorted once into the configure message — every worker samples
// and resolves forged percentiles on it as is — and the game reads it back
// as a view of that message (configureMessage).
func newLDPCluster(cfg LDPClusterConfig) (*ldpGame, *engine, error) {
	o, err := cfg.validate()
	if err != nil {
		return nil, nil, err
	}
	cfg.Collector.Reset()
	cfg.Adversary.Reset()
	kind, eps, k, _ := arrival.MechToWire(cfg.Mechanism) // validated
	conf := configureMessage(wire.Directive{
		Epsilon:  cfg.SummaryEpsilon,
		Pool:     sortedCopy(cfg.Inputs),
		MechKind: byte(kind), MechEps: eps, MechK: k,
	})
	view, err := wire.DecodeDirective(conf)
	if err != nil {
		return nil, nil, err
	}
	inputs := view.Pool

	// The report-space reference for quality evaluation: what clean
	// perturbed traffic looks like. One synthetic clean round, drawn on the
	// coordinator from the derived pre-game stream so the run stays a pure
	// function of (master seed, workers).
	preRng := cfg.Gen.preRand()
	cleanReports := make([]float64, cfg.Batch)
	for i := range cleanReports {
		x := inputs[preRng.Intn(len(inputs))]
		cleanReports[i] = cfg.Mechanism.Perturb(preRng, x)
	}
	refReports := sortedCopy(cleanReports)

	res := &LDPResult{}
	g := &ldpGame{cfg: &cfg, res: res, inputs: inputs, refReports: refReports}
	poison := int(math.Round(cfg.AttackRatio * float64(cfg.Batch)))
	en := o.newEngine(g, conf, &res.Board, cfg.Collector, cfg.OnRound, poison, ExcessMassQuality(cleanReports, refReports))
	return g, en, nil
}

// LDPShardedConfig parameterizes RunShardedLDP.
type LDPShardedConfig struct {
	LDPConfig

	// SummaryEpsilon is the rank-error budget of the per-round report
	// summaries; summary.DefaultEpsilon when 0.
	SummaryEpsilon float64

	// Shards is the number of in-process workers, at least 1.
	Shards int

	// Gen seeds the shard-local report generation and is required (see
	// LDPClusterConfig.Gen).
	Gen *ShardGen

	// SubShards / FocusTighten / FocusWidth mirror the LDPClusterConfig
	// scale knobs (the sharded run is the cluster run over loopback).
	SubShards    int
	FocusTighten int
	FocusWidth   float64
}

// RunShardedLDP plays the LDP collection game with per-round sharded report
// summarization — the cluster game over the in-process loopback transport.
// Unlike RunLDP it never pools raw reports: the mean estimate reduces the
// workers' exact (sum, count) aggregates, so AllReports stays empty.
func RunShardedLDP(cfg LDPShardedConfig) (*LDPResult, error) {
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("collect: shards = %d", cfg.Shards)
	}
	return RunClusterLDP(LDPClusterConfig{
		LDPConfig:      cfg.LDPConfig,
		SummaryEpsilon: cfg.SummaryEpsilon,
		Transport:      cluster.NewLoopback(cfg.Shards),
		Gen:            cfg.Gen,
		SubShards:      cfg.SubShards,
		FocusTighten:   cfg.FocusTighten,
		FocusWidth:     cfg.FocusWidth,
	})
}
