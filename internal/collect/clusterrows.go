package collect

import (
	"fmt"
	"math"

	"repro/internal/arrival"
	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/stats/summary"
	"repro/internal/wire"
)

// RowClusterConfig parameterizes the row collection game distributed over a
// cluster.Transport. The coordinator owns the dataset, the clean reference,
// each round's clean scale and the round loop; workers hold a copy of the
// dataset (shipped once at configure), summarize arrival distances,
// classify against the broadcast threshold, and ship back counts and the
// per-coordinate summary.Vector delta of the rows they accepted. The
// coordinator's robust center is maintained purely by absorbing those
// mergeable vector deltas — it never recomputes a median from raw accepted
// rows, which is what lets the accepted pool live on the workers at scale.
//
// Generation is shard-local: each worker draws its own rows from its
// derived seed stream, the per-round directive is a generator spec plus the
// center and the round's clean-scale summary — O(dim + 1/ε) per worker —
// and the kept rows themselves never travel per round. Each worker appends
// them to its own rowstore.Pool (in-memory, or spill-to-disk under
// `trimlab worker -spill-dir`) and classify replies carry only the
// per-leaf pool totals, so coordinator memory and per-round ingress stay
// flat in the total kept-row count (DESIGN.md §14). The pools are paged out
// at game end (CollectKept / Consume) or left worker-side entirely.
type RowClusterConfig struct {
	RowConfig

	// Transport connects the coordinator to its workers (shard order =
	// worker order).
	Transport cluster.Transport

	// Gen seeds the shard-local row generation and is required (see
	// ShardGen).
	Gen *ShardGen

	// SubShards splits each worker's shard-local row generation into this
	// many per-core sub-shards, generated and summarized in parallel
	// goroutines and merged locally in sub order. See ClusterConfig.SubShards.
	SubShards int

	// FocusTighten / FocusWidth adaptively tighten the distance summaries
	// around the current trim threshold. See Config.FocusTighten.
	FocusTighten int
	FocusWidth   float64

	// LateCenter generates, scales and trims each round against the robust
	// center as of TWO completed rounds back (D_{r−2}) instead of one
	// (D_{r−1}): round r+1's center is then already fixed when round r's
	// classify broadcast goes out, which is what lets the row game pipeline
	// (see Pipeline). The extra lag costs one round of center freshness —
	// bounded by the summary ε and the per-round accepted mass — and is a
	// game-semantics change: a late-center board matches the late-center
	// reference, not the fresh-center one. Rounds 1–2 run against the X0
	// seed center D_0.
	LateCenter bool

	// Pipeline enables the overlapped round schedule for the row game
	// (DESIGN.md §9/§14). It requires LateCenter: round r+1's generation
	// then depends only on state fixed before round r's classify broadcast,
	// so the engine piggybacks it there (wire.OpClassifyGenerate) and R
	// rounds cost R+1 fan-outs instead of the unpipelined 2R. The board
	// reproduces the unpipelined LateCenter run record for record.
	Pipeline bool

	// CollectKept materializes the worker-held kept pools into
	// RowResult.Kept at game end, paged leaf by leaf over OpFetchRows in
	// pages of fetchPageRows. Off by default: the collected dataset stays
	// worker-side and only the per-leaf manifest (RowResult.PoolRows) comes
	// back.
	CollectKept bool

	// Consume, when non-nil, streams the worker-held kept pools at game end
	// while the transport is still up: it is called per fetched page with
	// the global leaf index, the page's rows and — for labeled datasets —
	// the matching labels, leaves in merge (slot-major) order and rows in
	// append order within a leaf. The slices must not be retained across
	// calls. An error aborts the run. Composable with CollectKept.
	Consume func(leaf int, rows [][]float64, labels []int) error

	// Log receives shard-loss and lifecycle events; nil discards. Failure
	// semantics match ClusterConfig: drop-and-continue, and the lost
	// shard's slice of the round (counts, kept rows, center delta) is gone.
	// The clean scale is the coordinator's own and loses nothing.
	Log *obs.Logger

	// Metrics, when non-nil, receives the run's live metrics. See
	// ClusterConfig.Metrics.
	Metrics *obs.Registry

	// Fleet enables the supervision runtime — heartbeats, membership
	// epochs, worker re-join at round boundaries (the re-admission
	// re-ships the dataset). See ClusterConfig.Fleet; note the row game's
	// robust center carries history, so a degraded window shifts later
	// centers within the summary budget rather than replaying exactly
	// (DESIGN.md §8). A re-admitted worker's kept-row pool survives when it
	// merely lost connectivity, and a re-spawned `trimlab worker
	// -spill-dir` process recovers its pool from disk; a cold in-memory
	// replacement starts with an empty pool (its kept rows are gone, like
	// any other lost-shard data).
	Fleet *fleet.Config

	// Checkpoint, when non-nil, persists a wire-encoded Snapshot of the
	// coordinator game state every k rounds (fleet.Checkpointer). The
	// snapshot is O(dim/ε + rounds) — the accepted-pool vector sketch, the
	// late-center delay line, the board, and the per-leaf pool manifest —
	// never any rows: the kept rows stay in the worker pools, which is what
	// keeps row-game snapshots flat in the collected-data size.
	Checkpoint *fleet.Checkpointer

	// Resume restarts the game from a decoded row-game checkpoint: board,
	// accepted-pool vector, delay line, loss history and egress counters
	// are restored bit for bit, strategies are replayed over the restored
	// board, and every worker pool is rolled back to the snapshot's
	// manifest (OpPoolTrim) — so the pools must have survived, i.e. the
	// workers run spill-backed pools or kept their processes. A pool that
	// cannot reach its manifest count fails the resume. The master seed
	// must be the checkpointing run's.
	Resume *wire.Snapshot
}

// fetchPageRows bounds the rows per OpFetchRows page the game-end fetch
// requests: the coordinator holds at most one page at a time.
const fetchPageRows = 4096

// opts is the config's view of the knobs every cluster game shares.
func (c *RowClusterConfig) opts() *clusterOpts {
	return &clusterOpts{
		transport: c.Transport, gen: c.Gen, adversary: c.Adversary,
		rounds: c.Rounds, batch: c.Batch, ratio: c.AttackRatio, epsilon: c.SummaryEpsilon,
		subShards: c.SubShards, focusTighten: c.FocusTighten, focusWidth: c.FocusWidth, pipeline: c.Pipeline,
		log: c.Log, metrics: c.Metrics, fleet: c.Fleet, checkpoint: c.Checkpoint, resume: c.Resume,
	}
}

func (c *RowClusterConfig) validate() (*clusterOpts, error) {
	o := c.opts()
	if err := o.validate(); err != nil {
		return nil, err
	}
	if c.ExactQuantiles {
		return nil, fmt.Errorf("collect: cluster collection requires summaries (ExactQuantiles must be false)")
	}
	if c.Pipeline && !c.LateCenter {
		return nil, fmt.Errorf("collect: pipelined row rounds require LateCenter — generation can only overlap the classify broadcast against the one-round-late center (DESIGN.md §14)")
	}
	if err := c.RowConfig.validateMode(true); err != nil {
		return nil, err
	}
	if s := c.Resume; s != nil {
		if err := o.checkResume(wire.SnapRows); err != nil {
			return nil, err
		}
		if s.LateCenter != c.LateCenter {
			return nil, fmt.Errorf("collect: snapshot late-center %v, config %v — the center schedule is part of the game", s.LateCenter, c.LateCenter)
		}
		if len(s.VecState) == 0 {
			return nil, fmt.Errorf("collect: snapshot carries no accepted-vector state")
		}
	}
	return o, nil
}

// rowsGame adapts the row collection game to the round engine: per-round
// clean scales, distance thresholds, a robust center maintained from
// worker vector deltas, and worker-held kept pools tracked only by their
// per-leaf totals.
type rowsGame struct {
	cfg       *RowClusterConfig
	res       *RowResult
	dim       int
	refSorted []float64 // sorted clean distance reference

	// The coordinator's view of the accepted pool: a summary.Vector fed
	// exclusively by worker deltas (after the clean seed round X0).
	acceptedVec *summary.Vector

	// The center delay line, keyed by round number: cur is D_done, the
	// robust center after the last completed round's deltas (D_0, the X0
	// seed center, before round 1), and prev is D_{done−1} (D_0 until round
	// 2). A round's center is at most two rounds old (roundCenter).
	done      int
	cur, prev []float64

	// Round state of the latest round built (genRound): its center, clean
	// scale and jitter. The engine resolves a round's threshold before it
	// builds the next round, so threshold reads this round's scale. scaleSt
	// and dists are the clean-scale stream and distance buffer, reused
	// every round.
	round   roundGen
	scaleSt *summary.Stream
	dists   []float64

	// poolRows is the fleet-wide kept-pool manifest: each slot's per-leaf
	// pool totals as of its last classify (or trim) reply, leaves in the
	// slot's merge order. Snapshots persist it flat; the game-end fetch
	// pages against it.
	poolRows map[int][]int
}

// roundCenter is the center round r generates, scales and trims against:
// D_{r−1}, or D_{r−2} under LateCenter (D_0 before that exists). The
// engine builds round r only once D_{r−1} is absorbed — or, speculating
// under LateCenter, once D_{r−2} is — so the center is always cur or prev.
func (g *rowsGame) roundCenter(r int) []float64 {
	lag := 1
	if g.cfg.LateCenter {
		lag = 2
	}
	if max(r-lag, 0) < g.done {
		return g.prev
	}
	return g.cur
}

// genRound builds round r's generation state: its center and its clean
// scale — the distances of the collector's own clean dataset from that
// center, pushed once through one stream at the game's ε — with the jitter
// width from their exact extrema. Everything is a pure function of r, so a
// speculated build, a flush rebuild and a resumed game's first build agree
// bit for bit.
func (g *rowsGame) genRound(r int) roundGen {
	center := g.roundCenter(r)
	for i, row := range g.cfg.Data.X {
		g.dists[i] = stats.Euclidean(row, center)
	}
	g.scaleSt.Reset()
	g.scaleSt.PushBatch(g.dists)
	g.round = roundGen{
		jitter: jitterRange(g.scaleSt.Min(), g.scaleSt.Max()),
		center: center,
		scale:  g.scaleSt.Snapshot(),
	}
	return g.round
}

// speculative: under LateCenter, round r+1 generates against D_{r−1} —
// absorbed before round r's classify broadcast goes out — so speculation is
// safe. With the fresh center it would need round r's still-outstanding
// deltas, and the pipeline stays off.
func (g *rowsGame) speculative() bool { return g.cfg.LateCenter }

func (g *rowsGame) foldGen(*wire.Report, arrival.Spec) {}

func (g *rowsGame) threshold(pct float64, merged *summary.Summary) float64 {
	if g.cfg.TrimOnBatch {
		return merged.Query(pct)
	}
	return g.round.scale.Query(pct)
}

func (g *rowsGame) quality(merged *summary.Summary) float64 {
	return ExcessMassQualitySummary(merged, g.refSorted)
}

// foldClassify absorbs one worker's classify payload: the per-leaf pool
// totals of the worker-held kept rows (the rows themselves never ride on
// classify replies) plus the accepted-row vector delta the robust center is
// maintained from.
func (g *rowsGame) foldClassify(en *engine, r int, _ *RoundRecord, rep *wire.Report) error {
	if len(rep.KeptRows) != 0 {
		return fmt.Errorf("collect: round %d: worker %d shipped %d kept rows on a classify reply (kept rows are worker-held)",
			r, rep.Worker, len(rep.KeptRows))
	}
	g.poolRows[rep.Worker] = append(g.poolRows[rep.Worker][:0], rep.PoolRows...)
	g.res.KeptPoison += rep.Counts.PoisonKept
	// Report.Vecs holds one delta per leaf, in leaf order — aggregators
	// concatenate rather than merge: AbsorbCounted compresses per absorbed
	// delta, so only absorbing exactly one delta per leaf, in leaf order,
	// keeps the center bit-identical to the flat fleet's.
	for _, d := range rep.Vecs {
		if len(d.Dims) != g.dim {
			en.pool.log.Logf("collect: round %d: worker %d vector delta dim %d, want %d (dropped)",
				r, rep.Worker, len(d.Dims), g.dim)
			continue
		}
		for i := 0; i < g.dim; i++ {
			g.acceptedVec.Coord(i).AbsorbCounted(d.Dims[i], d.Count, d.Sums[i])
		}
	}
	return nil
}

// endRound advances the center delay line now that the round's accepted
// deltas are absorbed. Medians re-queries the vector sketch, so the center
// is a pure function of the absorbed deltas — the property the checkpoint
// restore path (which re-derives cur the same way) and the pipelined
// schedule both rely on.
func (g *rowsGame) endRound(*summary.Summary, int, float64) {
	g.prev, g.cur = g.cur, g.acceptedVec.Medians(nil)
	g.done++
}

// flatPoolRows flattens the kept-pool manifest into global leaf order —
// the snapshot form, and the count list RowResult reports.
func (g *rowsGame) flatPoolRows(pool *workerPool) []int {
	if g.poolRows == nil {
		return nil
	}
	var out []int
	for _, w := range pool.alive() {
		counts := g.poolRows[w]
		for rel := 0; rel < pool.leaves[w]; rel++ {
			n := 0
			if rel < len(counts) {
				n = counts[rel]
			}
			out = append(out, n)
		}
	}
	return out
}

// fetchKept pages the worker-held kept pools out at game end, leaf by leaf
// in merge order, delivering each page to the Consume callback and/or
// appending it to res.Kept (CollectKept). The coordinator holds at most one
// page at a time.
func (g *rowsGame) fetchKept(pool *workerPool) error {
	page := fetchPageRows
	leaf := 0
	for _, w := range pool.alive() {
		counts := g.poolRows[w]
		for rel := 0; rel < pool.leaves[w]; rel++ {
			total := 0
			if rel < len(counts) {
				total = counts[rel]
			}
			for lo := 0; lo < total; lo += page {
				hi := lo + page
				if hi > total {
					hi = total
				}
				rep, err := pool.call1(w, &wire.Directive{Op: wire.OpFetchRows, Leaf: rel, Lo: lo, Hi: hi}, false)
				if err != nil {
					return fmt.Errorf("collect: fetch kept rows from worker %d leaf %d: %w", w, rel, err)
				}
				if err := g.deliverPage(leaf, rep); err != nil {
					return err
				}
			}
			leaf++
		}
	}
	return nil
}

// deliverPage validates one fetched page and hands it to the configured
// sinks.
func (g *rowsGame) deliverPage(leaf int, rep *wire.Report) error {
	for _, row := range rep.KeptRows {
		if len(row) != g.dim {
			return fmt.Errorf("collect: leaf %d kept row dim %d, want %d", leaf, len(row), g.dim)
		}
	}
	if g.res.Kept.Y != nil && len(rep.KeptLabels) != len(rep.KeptRows) {
		return fmt.Errorf("collect: leaf %d shipped %d labels for %d kept rows", leaf, len(rep.KeptLabels), len(rep.KeptRows))
	}
	if g.cfg.Consume != nil {
		if err := g.cfg.Consume(leaf, rep.KeptRows, rep.KeptLabels); err != nil {
			return fmt.Errorf("collect: consume kept rows: %w", err)
		}
	}
	if g.cfg.CollectKept {
		g.res.Kept.X = append(g.res.Kept.X, rep.KeptRows...)
		if g.res.Kept.Y != nil {
			g.res.Kept.Y = append(g.res.Kept.Y, rep.KeptLabels...)
		}
	}
	return nil
}

// restorePools rolls every worker pool back to the snapshot's per-leaf
// manifest (OpPoolTrim) and verifies the resulting totals match — a pool
// that cannot reach its target (a cold in-memory replacement) fails the
// resume here, before any round plays.
func (g *rowsGame) restorePools(pool *workerPool, targets []int, round int) error {
	total := pool.totalLeaves()
	if len(targets) != total {
		return fmt.Errorf("collect: snapshot pool manifest covers %d leaves, fleet has %d", len(targets), total)
	}
	alive := pool.alive()
	dirs := make([]*wire.Directive, len(alive))
	off := 0
	for i, w := range alive {
		l := pool.leaves[w]
		dirs[i] = &wire.Directive{Op: wire.OpPoolTrim, Round: round, Cuts: targets[off : off+l]}
		off += l
	}
	reps, err := pool.callAll(round, "trim", dirs)
	if err != nil {
		return err
	}
	got := make([]int, 0, total)
	for _, rep := range reps {
		g.poolRows[rep.Worker] = append([]int(nil), rep.PoolRows...)
		got = append(got, rep.PoolRows...)
	}
	if len(got) != len(targets) {
		return fmt.Errorf("collect: pool trim reached %d leaves, snapshot manifest has %d", len(got), len(targets))
	}
	for i := range got {
		if got[i] != targets[i] {
			return fmt.Errorf("collect: leaf %d pool holds %d rows after trim, snapshot requires %d — kept-row pools did not survive the restart (run workers with -spill-dir)",
				i, got[i], targets[i])
		}
	}
	return nil
}

// RunClusterRows plays the row collection game across a worker cluster:
// two fan-outs per round (generate, classify) driven by the shared round
// engine — collapsing to one combined fan-out per steady-state round under
// Pipeline.
func RunClusterRows(cfg RowClusterConfig) (*RowResult, error) {
	o, err := cfg.validate()
	if err != nil {
		return nil, err
	}
	cfg.Collector.Reset()
	cfg.Adversary.Reset()

	// Clean reference center and distance scale: one-time setup over clean
	// data, identical to RunRows.
	center := coordMedian(cfg.Data.X, nil)
	dim := len(center)
	refDistances := make([]float64, cfg.Data.Len())
	for i, row := range cfg.Data.X {
		refDistances[i] = stats.Euclidean(row, center)
	}
	refSorted := sortedCopy(refDistances)

	// Pre-game coordinator draws: the clean baseline batch and the X0 seed
	// of the accepted pool, from the derived pre-game stream so the whole
	// run is a pure function of (master seed, workers).
	preRng := cfg.Gen.preRand()
	baseline := sampleDistances(preRng, cfg.Batch, refSorted)
	poisonCount := int(math.Round(cfg.AttackRatio * float64(cfg.Batch)))

	res := &RowResult{Kept: &dataset.Dataset{
		Name:     cfg.Data.Name + "-collected",
		Clusters: cfg.Data.Clusters,
	}}
	if cfg.Data.Labeled() {
		res.Kept.Y = []int{}
	}

	acceptedVec, err := summary.NewVector(dim, cfg.SummaryEpsilon, cfg.Batch*(cfg.Rounds+1))
	if err != nil {
		return nil, err
	}
	for i := 0; i < cfg.Batch; i++ {
		if err := acceptedVec.PushRow(cfg.Data.X[preRng.Intn(cfg.Data.Len())]); err != nil {
			return nil, err
		}
	}

	scaleSt, err := summary.New(cfg.SummaryEpsilon, cfg.Data.Len())
	if err != nil {
		return nil, err
	}
	// The delay line starts flat at D_0: rounds before the first absorbed
	// center run against the X0 seed center.
	d0 := acceptedVec.Medians(nil)
	g := &rowsGame{
		cfg: &cfg, res: res, dim: dim,
		refSorted:   refSorted,
		acceptedVec: acceptedVec,
		cur:         d0,
		prev:        d0,
		scaleSt:     scaleSt,
		dists:       make([]float64, cfg.Data.Len()),
		poolRows:    make(map[int][]int),
	}
	// The configure message carries the caller's dataset flat, with its
	// labels as u32s; the game reads the dataset itself, so nothing is
	// decoded back out of it, and the flat copy is garbage once encoded.
	conf := wire.Directive{
		Epsilon:     cfg.SummaryEpsilon,
		Rows:        wire.MatrixOf(cfg.Data.X),
		Clusters:    cfg.Data.Clusters,
		PoisonLabel: cfg.PoisonLabel,
	}
	if cfg.Data.Labeled() {
		conf.Labels = make([]uint32, len(cfg.Data.Y))
		for i, y := range cfg.Data.Y {
			conf.Labels[i] = uint32(y)
		}
	}
	en := o.newEngine(g, configureMessage(conf), &res.Board, cfg.Collector, cfg.OnRound, poisonCount, ExcessMassQuality(baseline, refSorted))
	defer en.pool.stop()
	if err := en.run(); err != nil {
		return nil, err
	}
	// Page the worker-held pools out while the transport is still up (the
	// deferred stop releases the workers only after this).
	if cfg.CollectKept || cfg.Consume != nil {
		if err := g.fetchKept(en.pool); err != nil {
			return nil, err
		}
	}
	res.PoolRows = g.flatPoolRows(en.pool)
	en.pool.finishStats(&res.ClusterStats)
	return res, nil
}

// RowShardedConfig parameterizes RunShardedRows.
type RowShardedConfig struct {
	RowConfig

	// Shards is the number of in-process workers, at least 1.
	Shards int

	// Gen seeds the shard-local row generation and is required (see
	// RowClusterConfig.Gen).
	Gen *ShardGen

	// LateCenter switches the trimming reference to the one-round-late
	// center schedule (see RowClusterConfig.LateCenter).
	LateCenter bool

	// SubShards / FocusTighten / FocusWidth mirror the RowClusterConfig
	// scale knobs (the sharded run is the cluster run over loopback).
	SubShards    int
	FocusTighten int
	FocusWidth   float64
}

// RunShardedRows plays the row collection game with sharded distance
// summarization and a robust center merged from per-shard summary.Vector
// deltas. It is the cluster game over the
// in-process loopback transport — the same wire messages and merge order
// as a TCP run, one process — with the kept pools collected into
// RowResult.Kept at game end.
func RunShardedRows(cfg RowShardedConfig) (*RowResult, error) {
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("collect: shards = %d", cfg.Shards)
	}
	return RunClusterRows(RowClusterConfig{
		RowConfig:    cfg.RowConfig,
		Transport:    cluster.NewLoopback(cfg.Shards),
		Gen:          cfg.Gen,
		LateCenter:   cfg.LateCenter,
		CollectKept:  true,
		SubShards:    cfg.SubShards,
		FocusTighten: cfg.FocusTighten,
		FocusWidth:   cfg.FocusWidth,
	})
}
