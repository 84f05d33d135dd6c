package collect

import (
	"fmt"

	"repro/internal/arrival"
	"repro/internal/cluster"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/stats/summary"
	"repro/internal/wire"
)

// ClusterConfig parameterizes a scalar collection game distributed over a
// cluster.Transport: the same game as RunSharded, but each shard lives
// behind a transport boundary (in-process loopback or TCP worker
// processes). Every round runs on the shard-local data plane (DESIGN.md
// §7): each worker generates its own arrivals from derived seed streams,
// so a run is a pure function of (master seed, worker count), and over the
// loopback it reproduces RunSharded with the same Gen and shard count
// record for record. Workers only ever see O(1) generator specs and the
// resolved threshold; the coordinator only ever sees wire-encoded summary
// deltas and counts.
type ClusterConfig struct {
	Config

	// Transport connects the coordinator to its workers; its worker order
	// is the shard order.
	Transport cluster.Transport

	// Gen seeds the shard-local data plane and is required: the configure
	// fan-out ships the sorted reference once — honest draws sample it and
	// poison lands at its percentiles — and every round directive is an
	// O(1) generator spec (derived seed + counts + injection parameters),
	// so coordinator egress per round is O(workers). The run reproduces RunSharded with the same Gen and
	// worker count record for record.
	Gen *ShardGen

	// SubShards splits each worker's per-round generation into this many
	// independently seeded sub-shards, drawn and summarized on parallel
	// goroutines and folded locally in sub order (wire v6, DESIGN.md §12) —
	// per-core parallelism inside each worker process on top of the
	// per-worker parallelism across the cluster. The subs are cells of the
	// flat derived-seed space; ≤ 1 means one shard per worker. The board is
	// shape-invariant: a W-worker run with C sub-shards reproduces a flat
	// (W·C)-shard RunSharded reference record for record.
	SubShards int

	// Pipeline enables the overlapped round schedule (DESIGN.md §9):
	// round r's classify broadcast carries round r+1's generator specs
	// (wire.OpClassifyGenerate), so workers overlap next-round generation
	// with the current classify and a steady-state round costs one RTT
	// instead of two. The board is unchanged: a pipelined run reproduces
	// the unpipelined run (and hence the RunSharded reference) record for
	// record; membership changes, checkpoints and resume flush the pipeline
	// at the round boundary, so the fleet invariants are preserved.
	Pipeline bool

	// Log receives shard-loss and lifecycle events (typed obs events plus
	// a printf adapter for free-form lines); nil discards them. A worker
	// whose call fails is dropped and the game continues on the survivors —
	// its slice of the round (summaries, counts, kept values) is lost,
	// which shows up as short per-round tallies for that round. Without a
	// Fleet config the drop is forever; with one, re-admission is the
	// supervisor's business.
	Log *obs.Logger

	// Metrics, when non-nil, receives the run's live metrics (phase
	// latency histograms, per-worker timings, egress/loss/round counters —
	// DESIGN.md §11). Purely observational: an instrumented run reproduces
	// a bare run record for record.
	Metrics *obs.Registry

	// Fleet enables the supervision runtime (internal/fleet, DESIGN.md §8):
	// heartbeat liveness over the transport, an epoch-numbered membership
	// view, and — with Fleet.Rejoin — re-admission of lost workers at round
	// boundaries (transport Revive, then the Hello/Configure/Join
	// handshake). Arrivals repartition deterministically over the live slot
	// set, so a run that loses a worker and re-admits it
	// matches the uninterrupted reference record for record from the first
	// round the membership is whole again.
	Fleet *fleet.Config

	// Checkpoint, when non-nil, persists a wire-encoded Snapshot of the
	// full coordinator game state every k rounds (fleet.Checkpointer). The
	// game is a pure function of (master seed, slot count), which is what
	// lets it resume reproducibly.
	Checkpoint *fleet.Checkpointer

	// Resume restarts the game from a decoded checkpoint: the board, the
	// game-long Received/Kept streams, loss history and egress counters are
	// restored bit for bit, strategies are replayed over the restored board,
	// and play continues at Snapshot.NextRound. The snapshot's
	// configuration fingerprint must match this config, including the
	// master seed of the checkpointing run's Gen.
	Resume *wire.Snapshot

	// Elastic admits worker slots mid-game (DESIGN.md §13): the last ΣAdd
	// transport slots are held out of the live set until their step's
	// round, then admitted like a re-joining slot (Hello/Configure/Join,
	// one epoch each), so they must accept a mid-game join
	// (Worker.AllowRejoin); one that refuses is charged a "grow" loss and
	// stays out. Existing slots keep their derived seed streams, so a run
	// that grows by k before round 1 reproduces the (W+k)-worker run record
	// for record, and a mid-game grow matches it from the grow round on.
	// Incompatible with Fleet supervision, checkpointing and resume. Steps
	// must be in strictly ascending round order with Add > 0, and must
	// leave a slot playing from round 1.
	Elastic []GrowStep
}

// GrowStep is one elastic-fleet growth event: admit the next Add held-out
// growth slots at the top of Round.
type GrowStep struct {
	Round int
	Add   int
}

// opts is the config's view of the knobs every cluster game shares.
func (c *ClusterConfig) opts() *clusterOpts {
	return &clusterOpts{
		transport: c.Transport, gen: c.Gen, adversary: c.Adversary,
		rounds: c.Rounds, batch: c.Batch, ratio: c.AttackRatio, epsilon: c.SummaryEpsilon,
		subShards: c.SubShards, focusTighten: c.FocusTighten, focusWidth: c.FocusWidth, pipeline: c.Pipeline,
		log: c.Log, metrics: c.Metrics, fleet: c.Fleet, checkpoint: c.Checkpoint, resume: c.Resume, elastic: c.Elastic,
	}
}

func (c *ClusterConfig) validate() (*clusterOpts, error) {
	o := c.opts()
	if err := o.validate(); err != nil {
		return nil, err
	}
	if c.ExactQuantiles {
		return nil, fmt.Errorf("collect: cluster collection requires summaries (ExactQuantiles must be false)")
	}
	if err := c.Config.validateMode(true); err != nil {
		return nil, err
	}
	if c.Resume != nil {
		if err := o.checkResume(wire.SnapScalar); err != nil {
			return nil, err
		}
		if c.Resume.Received == nil || c.Resume.Kept == nil {
			return nil, fmt.Errorf("collect: snapshot carries no stream state")
		}
	}
	return o, nil
}

// scalarGame adapts the scalar collection game to the round engine: scalar
// arrivals, thresholds on the clean reference scale (or the batch), and a
// kept-value stream.
type scalarGame struct {
	cfg    *ClusterConfig
	res    *Result
	ref    []float64 // sorted clean reference, the one pool workers sample: a view of the configure message
	jscale float64
}

func (g *scalarGame) genRound(int) roundGen { return roundGen{jitter: g.jscale} }
func (g *scalarGame) speculative() bool     { return true }

func (g *scalarGame) foldGen(*wire.Report, arrival.Spec) {}

func (g *scalarGame) threshold(pct float64, merged *summary.Summary) float64 {
	if g.cfg.TrimOnBatch {
		return merged.Query(pct)
	}
	return stats.QuantileSorted(g.ref, pct)
}

func (g *scalarGame) quality(merged *summary.Summary) float64 {
	return ExcessMassQualitySummary(merged, g.ref)
}

// foldClassify absorbs the kept-pool deltas (exact counts/sums ride along,
// so the Kept estimators stay exact). Only workers that answered
// contribute, so a lost shard's values are consistently missing from
// tallies and Kept alike.
func (g *scalarGame) foldClassify(_ *engine, _ int, rec *RoundRecord, rep *wire.Report) error {
	g.res.Kept.AbsorbCounted(rep.Kept, rep.KeptCount, rep.KeptSum)
	return nil
}

func (g *scalarGame) endRound(merged *summary.Summary, count int, sum float64) {
	g.res.Received.AbsorbCounted(merged, count, sum)
}

// RunCluster plays the scalar collection game across a worker cluster. See
// ClusterConfig for the protocol split; per round it is two fan-outs:
// broadcast O(1) generator specs, let each worker draw and summarize its
// own slice and merge the returned deltas, then broadcast the resolved
// threshold and reduce the returned classification counts and kept-pool
// deltas. With Pipeline the two fan-outs of consecutive rounds overlap (one
// RTT per steady-state round); the board is identical either way.
func RunCluster(cfg ClusterConfig) (*Result, error) {
	g, en, err := newScalarCluster(cfg)
	if err != nil {
		return nil, err
	}
	defer en.pool.stop()
	if err := en.run(); err != nil {
		return nil, err
	}
	en.pool.finishStats(&g.res.ClusterStats)
	return g.res, nil
}

// newScalarCluster validates cfg and sets the scalar cluster game up: the
// reference is sorted once into the configure message, and the game reads
// it back as a view of that message (configureMessage).
func newScalarCluster(cfg ClusterConfig) (*scalarGame, *engine, error) {
	o, err := cfg.validate()
	if err != nil {
		return nil, nil, err
	}
	cfg.Collector.Reset()
	cfg.Adversary.Reset()
	conf := configureMessage(wire.Directive{Epsilon: cfg.SummaryEpsilon, RefSorted: sortedCopy(cfg.Reference)})
	view, err := wire.DecodeDirective(conf)
	if err != nil {
		return nil, nil, err
	}
	ref := view.RefSorted

	// Baseline quality: the same pre-game draw as RunSharded with the same
	// Gen, so the boards stay comparable record for record.
	gen := &arrival.Scalar{Ref: ref}
	baseline, _, err := gen.Draw(cfg.Gen.preRand(), arrival.Spec{HonestN: cfg.Batch})
	if err != nil {
		return nil, nil, err
	}

	roundLen := cfg.Batch + cfg.poisonPerRound()
	res := &Result{}
	if res.Received, err = summary.New(cfg.SummaryEpsilon, cfg.Rounds*roundLen); err != nil {
		return nil, nil, err
	}
	if res.Kept, err = summary.New(cfg.SummaryEpsilon, cfg.Rounds*roundLen); err != nil {
		return nil, nil, err
	}

	g := &scalarGame{cfg: &cfg, res: res, ref: ref, jscale: jitterScale(ref)}
	en := o.newEngine(g, conf, &res.Board, cfg.Collector, cfg.OnRound, cfg.poisonPerRound(), ExcessMassQuality(baseline, ref))
	return g, en, nil
}
