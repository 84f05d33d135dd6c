package collect

import (
	"fmt"
	"math"

	"repro/internal/attack"
	"repro/internal/cluster"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/stats/summary"
	"repro/internal/trim"
	"repro/internal/wire"
)

// clusterOpts is the one view of the knobs every cluster game shares. The
// three cluster configs (ClusterConfig, RowClusterConfig, LDPClusterConfig)
// keep declaring them as their own fields, so callers build configs with
// plain composite literals; each config hands this view to the one
// validate() and the one engine constructor below.
type clusterOpts struct {
	transport cluster.Transport
	gen       *ShardGen
	adversary attack.Strategy

	// The game's shape, part of every snapshot's configuration fingerprint.
	rounds, batch  int
	ratio, epsilon float64

	subShards    int
	focusTighten int
	focusWidth   float64
	pipeline     bool

	log        *obs.Logger
	metrics    *obs.Registry
	fleet      *fleet.Config
	checkpoint *fleet.Checkpointer
	resume     *wire.Snapshot
	elastic    []GrowStep
}

// validate checks the shared knobs. Every cluster game runs on the
// shard-local data plane (DESIGN.md §7), so a ShardGen and a spec-codable
// adversary are required up front.
func (o *clusterOpts) validate() error {
	if o.gen == nil {
		return fmt.Errorf("collect: cluster games run on the shard-local data plane: Gen (a ShardGen) is required")
	}
	if o.transport == nil {
		return fmt.Errorf("collect: nil cluster transport")
	}
	if o.transport.Workers() < 1 {
		return fmt.Errorf("collect: cluster transport has no workers")
	}
	// Every worker resolves the budget at configure and refuses one no
	// stream can be built with (the LDP coordinator builds none); refuse
	// it here, before the configure fan-out.
	if _, err := summary.ResolveEpsilon(o.epsilon); err != nil {
		return fmt.Errorf("collect: SummaryEpsilon: %w", err)
	}
	if o.subShards < 0 {
		return fmt.Errorf("collect: sub-shards = %d", o.subShards)
	}
	if o.focusTighten < 0 {
		return fmt.Errorf("collect: focus tighten = %d", o.focusTighten)
	}
	if o.focusWidth < 0 || math.IsNaN(o.focusWidth) {
		return fmt.Errorf("collect: focus width = %v", o.focusWidth)
	}
	if _, err := specInjector(o.adversary); err != nil {
		return err
	}
	return o.validateElastic()
}

// validateElastic checks the growth schedule against the transport and the
// run modes that can host it: supervision would re-admit held-out slots as
// if lost, and a snapshot does not record which slots are still held.
func (o *clusterOpts) validateElastic() error {
	if len(o.elastic) == 0 {
		return nil
	}
	if o.fleet != nil || o.checkpoint != nil || o.resume != nil {
		return fmt.Errorf("collect: elastic growth is incompatible with fleet supervision, checkpoint and resume")
	}
	last := 0
	for _, s := range o.elastic {
		if s.Round < 1 || s.Round > o.rounds {
			return fmt.Errorf("collect: elastic step at round %d outside the %d-round game", s.Round, o.rounds)
		}
		if s.Round <= last {
			return fmt.Errorf("collect: elastic steps must be in strictly ascending round order")
		}
		if s.Add <= 0 {
			return fmt.Errorf("collect: elastic step at round %d adds %d workers", s.Round, s.Add)
		}
		last = s.Round
	}
	if held := o.held(); held >= o.transport.Workers() {
		return fmt.Errorf("collect: elastic schedule holds out all %d transport slots", held)
	}
	return nil
}

// held is the number of growth slots — the transport's last — the elastic
// schedule holds out of the live set until their rounds.
func (o *clusterOpts) held() (n int) {
	for _, s := range o.elastic {
		n += s.Add
	}
	return n
}

// subs normalizes the sub-shard knob: 0 and 1 are the same layout.
func (o *clusterOpts) subs() int {
	if o.subShards < 1 {
		return 1
	}
	return o.subShards
}

// fingerprint is the configuration a snapshot of this game is pinned to:
// the snapshot header a checkpoint writes, and what a resume must match.
func (o *clusterOpts) fingerprint(game wire.SnapGame) wire.Snapshot {
	ft, fw := focusParams(o.focusTighten, o.focusWidth)
	return wire.Snapshot{
		Game:         game,
		Seed:         o.gen.MasterSeed,
		Rounds:       o.rounds,
		Batch:        o.batch,
		Ratio:        o.ratio,
		Epsilon:      o.epsilon,
		Workers:      o.transport.Workers(),
		SubShards:    o.subs(),
		FocusTighten: ft,
		FocusWidth:   fw,
	}
}

// checkResume pins the resume snapshot's fingerprint to this game:
// resuming a different game is an operator error, never a merge. The games
// check their own state fields on top.
func (o *clusterOpts) checkResume(game wire.SnapGame) error {
	s, want := o.resume, o.fingerprint(game)
	switch {
	case s.Game != want.Game:
		return fmt.Errorf("collect: snapshot is for game %d, this cluster game is %d", s.Game, want.Game)
	case s.Seed != want.Seed:
		return fmt.Errorf("collect: snapshot master seed %d, config %d", s.Seed, want.Seed)
	case s.Rounds != want.Rounds || s.Batch != want.Batch:
		return fmt.Errorf("collect: snapshot game %d rounds x batch %d, config %d x %d",
			s.Rounds, s.Batch, want.Rounds, want.Batch)
	case s.Ratio != want.Ratio:
		return fmt.Errorf("collect: snapshot attack ratio %v, config %v", s.Ratio, want.Ratio)
	case s.Epsilon != want.Epsilon:
		return fmt.Errorf("collect: snapshot summary epsilon %v, config %v", s.Epsilon, want.Epsilon)
	case s.Workers != want.Workers:
		return fmt.Errorf("collect: snapshot cut over %d worker slots, transport has %d", s.Workers, want.Workers)
	case s.SubShards != want.SubShards:
		return fmt.Errorf("collect: snapshot cut at %d sub-shards per worker, config %d", s.SubShards, want.SubShards)
	case s.FocusTighten != want.FocusTighten || s.FocusWidth != want.FocusWidth:
		return fmt.Errorf("collect: snapshot focus %d× / ±%v, config %d× / ±%v",
			s.FocusTighten, s.FocusWidth, want.FocusTighten, want.FocusWidth)
	case s.NextRound > o.rounds+1:
		return fmt.Errorf("collect: snapshot next round %d beyond the %d-round game", s.NextRound, o.rounds)
	}
	return nil
}

// snapshotter is implemented by the games that checkpoint (scalar and
// rows): save adds the game's own state to a snapshot whose header and
// pool history the engine filled; load restores that state after the
// engine restored the board and pool history.
type snapshotter interface {
	snapGame() wire.SnapGame
	save(en *engine, s *wire.Snapshot)
	load(en *engine, s *wire.Snapshot) error
}

// newEngine builds a cluster game's engine: the worker pool, which sends
// conf (configureMessage) to every slot, the shared round-loop state, and
// — for a game that snapshots — the resume and checkpoint closures the
// options ask for. The caller defers en.pool.stop().
func (o *clusterOpts) newEngine(g Game, conf []byte, board *Board, collector trim.Strategy, onRound func(RoundRecord), poison int, baselineQ float64) *engine {
	si, _ := specInjector(o.adversary) // validated
	ft, fw := focusParams(o.focusTighten, o.focusWidth)
	en := &engine{
		game:         g,
		pool:         newWorkerPool(o.transport, conf, o.log, o.metrics, o.fleet),
		board:        board,
		collector:    collector,
		rounds:       o.rounds,
		batch:        o.batch,
		poison:       poison,
		baselineQ:    baselineQ,
		gen:          o.gen,
		si:           si,
		subShards:    o.subs(),
		focusTighten: ft,
		focusWidth:   fw,
		pipeline:     o.pipeline,
		elastic:      o.elastic,
		nextGrow:     o.transport.Workers() - o.held(),
		onRound:      onRound,
	}
	en.pool.ms.Hold(o.held())
	sg, ok := g.(snapshotter)
	if !ok {
		return en
	}
	if snap := o.resume; snap != nil {
		en.resume = func() (int, error) {
			// The baseline re-derived by the game is the purity check: a
			// snapshot cut from the same (master seed, data) reproduces it bit
			// for bit.
			if !sameQuality(snap.BaselineQ, baselineQ) {
				return 0, fmt.Errorf("collect: snapshot baseline quality %v, recomputed %v (snapshot is from a different game)",
					snap.BaselineQ, baselineQ)
			}
			*board = Board{Records: snapToRecords(snap.Records)}
			restorePoolHistory(snap, en.pool)
			if err := sg.load(en, snap); err != nil {
				return 0, err
			}
			if err := replayStrategies(collector, si, board.Records); err != nil {
				return 0, err
			}
			// Re-anchor the focus schedule: the resumed run's first round
			// anchors on the last posted round's percentile, exactly as the
			// uninterrupted run would have.
			if n := len(board.Records); n > 0 {
				en.lastPct, en.haveLast = board.Records[n-1].ThresholdPct, true
			}
			return snap.NextRound, nil
		}
	}
	if ck := o.checkpoint; ck != nil {
		en.checkpointDue = ck.Due
		en.checkpoint = func(r int) error {
			snap := o.fingerprint(sg.snapGame())
			en.snapshotHistory(&snap, r)
			sg.save(en, &snap)
			path, err := ck.Write(&snap)
			if err != nil {
				return err
			}
			en.pool.log.Checkpoint(r, path)
			en.pool.met.Counter("trimlab_checkpoints_total").Inc()
			return nil
		}
	}
	return en
}
