package collect

import (
	"fmt"
	"math"

	"repro/internal/attack"
	"repro/internal/fleet"
	"repro/internal/stats/summary"
	"repro/internal/trim"
	"repro/internal/wire"
)

// Checkpointed resumable games (DESIGN.md §8). A cluster game is a pure
// function of (master seed, worker slot count), and its coordinator state
// between rounds is compact: the public board, the game's own O(1/ε)
// sketch state, loss history, egress counters, and the round index — which
// IS the RNG cell, since every draw derives from (master seed, slot,
// round). A wire.Snapshot captures exactly that; the strategies are not
// serialized but replayed deterministically over the restored board, with
// the recorded thresholds double-checking the replay. The engine
// constructor (clusterOpts.newEngine) wires the shared header and history;
// the scalar and row games add their state through snapshotter.

// snapshotHistory fills the state every snapshot carries beyond its
// configuration fingerprint: the round to resume at, the board, the loss
// and membership history, the egress account, and the baseline quality the
// resume re-derives as its purity check.
func (en *engine) snapshotHistory(s *wire.Snapshot, r int) {
	p := en.pool
	s.NextRound = r + 1
	s.Epoch = len(p.fleetLog())
	s.BaselineQ = en.baselineQ
	s.Records = recordsToSnap(en.board.Records)
	s.Losses = lossesToSnap(p.losses)
	s.Events = eventsToSnap(p.fleetLog())
	s.Egress = p.egress
	s.EgressConfig = p.egressConfig
}

func (g *scalarGame) snapGame() wire.SnapGame { return wire.SnapScalar }

// save adds the game-long Received/Kept stream states.
func (g *scalarGame) save(_ *engine, s *wire.Snapshot) {
	s.Received = g.res.Received.State()
	s.Kept = g.res.Kept.State()
}

// load rebuilds the streams from their full states, so every later
// estimate matches the uninterrupted run bit for bit.
func (g *scalarGame) load(_ *engine, s *wire.Snapshot) (err error) {
	if g.res.Received, err = summary.FromState(s.Received); err != nil {
		return fmt.Errorf("collect: resume received stream: %w", err)
	}
	if g.res.Kept, err = summary.FromState(s.Kept); err != nil {
		return fmt.Errorf("collect: resume kept stream: %w", err)
	}
	return nil
}

// restorePoolHistory loads the game-independent pool bookkeeping — loss and
// membership history and the egress account — from a snapshot, so the
// resumed run reports the same degraded windows (WholeSince) the original
// would have; the egress counters continue from the snapshot (the resumed
// run's own re-configure fan-out comes on top).
func restorePoolHistory(snap *wire.Snapshot, pool *workerPool) {
	pool.losses = snapToLosses(snap.Losses)
	pool.priorEvents = snapToEvents(snap.Events)
	// Slots that were down when the snapshot was cut were implicitly
	// re-admitted by the resumed run's configure fan-out (it reaches every
	// transport slot, and slots it could not reach are already dropped in
	// the current membership) — record that as admissions at the resume
	// round so the combined log stays consistent.
	down := make(map[int]bool)
	for _, ev := range pool.priorEvents {
		switch ev.Kind {
		case fleet.EventDrop:
			down[ev.Worker] = true
		case fleet.EventAdmit:
			delete(down, ev.Worker)
		}
	}
	for _, w := range pool.ms.Alive() {
		if down[w] {
			pool.priorEvents = append(pool.priorEvents, fleet.Event{
				Kind: fleet.EventAdmit, Round: snap.NextRound, Worker: w,
			})
		}
	}
	pool.egress += snap.Egress
	pool.egressConfig += snap.EgressConfig
}

func (g *rowsGame) snapGame() wire.SnapGame { return wire.SnapRows }

// save adds the row game's coordinator state. Unlike the scalar game there
// is no raw data here at all: the accepted-pool state is the O(dim/ε)
// per-coordinate summary vector plus the trailing center, and the kept rows
// themselves stay worker-side — the snapshot carries only their per-leaf
// manifest, which resume verifies against the live pools (OpPoolTrim).
// Coordinator snapshot size is flat in the total number of kept rows.
func (g *rowsGame) save(en *engine, s *wire.Snapshot) {
	s.LateCenter = g.cfg.LateCenter
	s.KeptPoison = g.res.KeptPoison
	s.VecState = g.acceptedVec.States()
	s.PrevCenter = append([]float64(nil), g.prev...)
	s.PoolRows = g.flatPoolRows(en.pool)
}

// load restores the row game's state: the accepted-pool vector is rebuilt
// from its full per-coordinate states and the current center re-derived
// from it (Medians is a pure function of the absorbed deltas, so the
// resumed center matches the uninterrupted run bit for bit); the trailing
// center comes from the snapshot. Round NextRound's clean scale is rebuilt
// from its center like any other round's. Then every worker pool is rolled
// back to the snapshot's manifest: rows the original run appended after the
// checkpoint round must not survive into the resumed run's pools.
func (g *rowsGame) load(en *engine, s *wire.Snapshot) error {
	vec, err := summary.VectorFromState(s.VecState)
	if err != nil {
		return fmt.Errorf("collect: resume accepted vector: %w", err)
	}
	if vec.Dim() != g.dim {
		return fmt.Errorf("collect: snapshot accepted vector has %d coordinates, dataset has %d", vec.Dim(), g.dim)
	}
	if len(s.PrevCenter) != g.dim {
		return fmt.Errorf("collect: snapshot trailing center has %d coordinates, dataset has %d", len(s.PrevCenter), g.dim)
	}
	g.acceptedVec = vec
	g.done = s.NextRound - 1
	g.cur = vec.Medians(nil)
	g.prev = append([]float64(nil), s.PrevCenter...)
	g.res.KeptPoison = s.KeptPoison
	return g.restorePools(en.pool, s.PoolRows, s.NextRound)
}

// replayStrategies re-advances the collector's and adversary's internal
// state over the restored board: round by round each strategy sees exactly
// the observation it saw in the original run, so its state after the replay
// equals its state at the checkpoint. The collector's replayed thresholds
// are checked against the recorded ones — a mismatch means the strategy is
// not a deterministic function of the board (or the wrong strategy was
// configured) and the resume must not continue.
func replayStrategies(collector trim.Strategy, si attack.SpecInjector, records []RoundRecord) error {
	var replay Board
	for _, rec := range records {
		pct := collector.Threshold(rec.Round, replay.collectorView())
		if pct != rec.ThresholdPct {
			return fmt.Errorf("collect: resume replay diverged at round %d: collector threshold %v, recorded %v",
				rec.Round, pct, rec.ThresholdPct)
		}
		si.InjectionSpec(rec.Round, replay.adversaryView())
		replay.Post(rec)
	}
	return nil
}

// recordsToSnap/snapToRecords convert the public board. MeanInjectionPct is
// float-bit faithful both ways (NaN marks a poison-free round).
func recordsToSnap(records []RoundRecord) []wire.SnapRound {
	out := make([]wire.SnapRound, len(records))
	for i, r := range records {
		out[i] = wire.SnapRound{
			Round:            r.Round,
			ThresholdPct:     r.ThresholdPct,
			ThresholdValue:   r.ThresholdValue,
			MeanInjectionPct: r.MeanInjectionPct,
			HonestKept:       r.HonestKept,
			HonestTrimmed:    r.HonestTrimmed,
			PoisonKept:       r.PoisonKept,
			PoisonTrimmed:    r.PoisonTrimmed,
			Quality:          r.Quality,
			BaselineQuality:  r.BaselineQuality,
		}
	}
	return out
}

func snapToRecords(rounds []wire.SnapRound) []RoundRecord {
	out := make([]RoundRecord, len(rounds))
	for i, r := range rounds {
		out[i] = RoundRecord{
			Round:            r.Round,
			ThresholdPct:     r.ThresholdPct,
			ThresholdValue:   r.ThresholdValue,
			MeanInjectionPct: r.MeanInjectionPct,
			HonestKept:       r.HonestKept,
			HonestTrimmed:    r.HonestTrimmed,
			PoisonKept:       r.PoisonKept,
			PoisonTrimmed:    r.PoisonTrimmed,
			Quality:          r.Quality,
			BaselineQuality:  r.BaselineQuality,
		}
	}
	return out
}

func lossesToSnap(losses []ShardLoss) []wire.SnapLoss {
	out := make([]wire.SnapLoss, len(losses))
	for i, l := range losses {
		out[i] = wire.SnapLoss{Round: l.Round, Worker: l.Worker, Lo: l.Lo, Hi: l.Hi, Phase: l.Phase}
	}
	return out
}

func snapToLosses(losses []wire.SnapLoss) []ShardLoss {
	if len(losses) == 0 {
		return nil
	}
	out := make([]ShardLoss, len(losses))
	for i, l := range losses {
		out[i] = ShardLoss{Round: l.Round, Worker: l.Worker, Lo: l.Lo, Hi: l.Hi, Phase: l.Phase}
	}
	return out
}

func eventsToSnap(events []fleet.Event) []wire.SnapEvent {
	if len(events) == 0 {
		return nil
	}
	out := make([]wire.SnapEvent, len(events))
	for i, e := range events {
		out[i] = wire.SnapEvent{Kind: byte(e.Kind), Epoch: e.Epoch, Round: e.Round, Worker: e.Worker}
	}
	return out
}

func snapToEvents(events []wire.SnapEvent) []fleet.Event {
	if len(events) == 0 {
		return nil
	}
	out := make([]fleet.Event, len(events))
	for i, e := range events {
		out[i] = fleet.Event{Kind: fleet.EventKind(e.Kind), Epoch: e.Epoch, Round: e.Round, Worker: e.Worker}
	}
	return out
}

// sameQuality compares baseline qualities bit for bit, treating NaN==NaN
// (a degenerate quality standard could yield NaN on both sides).
func sameQuality(a, b float64) bool {
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	return a == b
}
