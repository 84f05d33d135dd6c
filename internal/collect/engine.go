package collect

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"sync"
	"time"

	"repro/internal/arrival"
	"repro/internal/attack"
	"repro/internal/cluster"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/stats/summary"
	"repro/internal/trim"
	"repro/internal/wire"
)

// This file is the unified cluster round engine: one coordinator loop
// serving all three collection games (scalar, rows, LDP) over a
// cluster.Transport. The engine owns — exactly once — everything the
// per-game loops used to duplicate: the worker pool and its fleet
// supervision hooks, loss bookkeeping, egress and per-phase timing
// accounting, checkpoint cadence, and the pipelined (overlapped) round
// schedule. What differs between the games (directive payloads, threshold
// semantics, kept-pool folding) plugs in through the Game interface.
//
// Every round runs on the shard-local data plane (DESIGN.md §7): workers
// draw their own arrivals from derived seed streams, and the coordinator
// ships only O(1) generator specs and resolved thresholds.
//
// Pipelined rounds (DESIGN.md §9): a round is two fan-outs —
// generate/summarize, then classify. Generation of round r+1 depends only
// on derived seed streams and the adversary's view of round r, which is
// {Round, ThresholdPct} — both fixed before round r's classify broadcast
// goes out. With ClusterConfig.Pipeline the engine therefore piggybacks
// round r+1's generator specs onto round r's classify broadcast
// (wire.OpClassifyGenerate): the workers overlap next-round generation
// with the current classify, the combined reply carries both payloads, and
// a steady-state round costs one RTT instead of two. Speculation is
// flushed — discarded and re-fanned as a plain Generate — whenever the
// membership epoch changed between speculation and consumption (a worker
// lost during the combined call, a boundary drop or re-admission), and is
// skipped at checkpoint rounds so a snapshot always cuts a drained
// pipeline. The injection spec of the speculated round is drawn exactly
// once either way, so strategy state advances identically to an
// unpipelined run and the boards match record for record.

// Game adapts one collection game to the engine: the per-phase directive
// builders and report folders that differ between the scalar, row and LDP
// games. Round state a game needs across phases (drawn values, centers,
// clean scales) lives on the implementation.
type Game interface {
	// genRound returns what round r's generate directives carry beyond the
	// engine's own fields. The engine calls it for every build of round r's
	// directives — plain, speculated, a flush rebuild, a resumed game's
	// first round — and every build of the same round gets the same state.
	genRound(r int) roundGen

	// foldGen folds one phase-1 report beyond the engine's common
	// accounting (the LDP game's honest-input aggregates).
	foldGen(rep *wire.Report, spec arrival.Spec)

	// threshold resolves the round's threshold percentile to a value.
	threshold(pct float64, merged *summary.Summary) float64

	// quality scores the round from the merged summary.
	quality(merged *summary.Summary) float64

	// foldClassify folds one classify report into the round record and the
	// game's kept-pool state (the shared tallies are folded by the engine).
	foldClassify(en *engine, r int, rec *RoundRecord, rep *wire.Report) error

	// endRound absorbs the round's merged summary into game-long state.
	endRound(merged *summary.Summary, count int, sum float64)

	// speculative reports whether round r+1's generation depends only on
	// state already fixed when round r's classify broadcast goes out —
	// never on round r's classify outcome — so the pipeline may piggyback
	// it onto that broadcast. True for the scalar and LDP games; for the
	// row game true only under LateCenter, where round r+1 generates
	// against the center as of round r−1 (already absorbed) instead of
	// round r's still-outstanding accepted-row deltas (DESIGN.md §14).
	speculative() bool
}

// roundGen is a round's generation state: the tie-break jitter width its
// poison percentiles resolve with and, for the row game, the center it
// generates around and the clean scale those percentiles resolve on.
type roundGen struct {
	jitter float64
	center []float64
	scale  *summary.Summary
}

// Timing is the coordinator's per-phase wall-clock account of a cluster
// run: how long it sat blocked on each phase's fan-out, summed over the
// game. Configure covers the one-time configure broadcast and initial
// membership grant; Generate the standalone phase-1 fan-outs; Classify
// every threshold broadcast — including the combined classify+generate
// broadcasts of a pipelined run, which is why pipelining shows up as the
// Generate share collapsing into Classify; Admission the re-admission
// handshakes of a supervised run.
type Timing struct {
	Configure time.Duration
	Generate  time.Duration
	Classify  time.Duration
	Admission time.Duration

	// Merge is the coordinator's own per-round merge work: folding the
	// phase-1 report summaries it received into the round summary. This is
	// the serial O(fan-in) share an aggregator tier exists to keep flat as
	// the fleet widens (DESIGN.md §13) — the CI wide-fleet gate compares it
	// across fan-ins. Not part of DataPlane (it is coordinator CPU, not
	// fan-out blocking; it is measured inside the round loop between the
	// two fan-outs).
	Merge time.Duration

	// Rounds is the number of rounds this run played (a resumed run counts
	// only its own).
	Rounds int
}

// DataPlane is the total round fan-out time: everything but the one-time
// configure and the supervision-plane admissions.
func (t Timing) DataPlane() time.Duration {
	return t.Generate + t.Classify
}

// PerRound is the average data-plane fan-out time per round played — the
// number the pipelining study compares across transports and schedules.
func (t Timing) PerRound() time.Duration {
	if t.Rounds == 0 {
		return 0
	}
	return t.DataPlane() / time.Duration(t.Rounds)
}

// add attributes one fan-out's duration by its phase label.
func (t *Timing) add(phase string, d time.Duration) {
	switch phase {
	case "configure", "join":
		t.Configure += d
	case "generate":
		t.Generate += d
	case "classify", "classify+generate":
		t.Classify += d
	default:
		t.Admission += d
	}
}

// ClusterStats is the failure, membership, egress and timing account every
// cluster game's result carries (embedded in Result, RowResult and
// LDPResult). The engine fills it from the worker pool once, at game end;
// all fields are zero for in-process games.
type ClusterStats struct {
	// LostShards counts worker-loss events in the run's failure handling:
	// each loss means one shard's round slice went missing from the tallies
	// of the round it died in. Losses carries the detail — round, phase and
	// the honest-batch range each lost slot held.
	LostShards int
	Losses     []ShardLoss

	// FleetEvents is the membership change log (drops and — under fleet
	// supervision with re-join — admissions), each stamped with the epoch
	// it created. WholeSince is the first round from which the live set has
	// been continuously whole: 1 for an undisturbed run, 0 when the run
	// ended degraded. From WholeSince on, a shard-local run's records match
	// the uninterrupted reference record for record (given board-oblivious
	// strategies; see DESIGN.md §8).
	FleetEvents []fleet.Event
	WholeSince  int

	// TreeLeaves and TreeHeight describe the merge topology at game end:
	// the total live leaf-worker count behind the coordinator's direct
	// slots, and the maximum merge-graph height above the leaves (0 for a
	// flat fleet, where every slot is a worker and TreeLeaves equals the
	// live worker count). An aggregator tier makes TreeLeaves ≫ direct
	// slots (DESIGN.md §13).
	TreeLeaves int
	TreeHeight int

	// EgressBytes is the coordinator's total outbound directive traffic
	// over the transport (configure + every round fan-out, before the final
	// stop broadcast); EgressConfigBytes is the one-time configure share.
	// Per-round data-plane egress is (EgressBytes − EgressConfigBytes) /
	// rounds: O(workers), independent of the batch.
	EgressBytes       int64
	EgressConfigBytes int64

	// IngressBytes is the coordinator's total inbound reply traffic over
	// the same calls: every report a slot answered with, including the
	// row game's kept-row pages. Unlike egress it is not checkpointed, so
	// a resumed run counts only the replies its own process received.
	IngressBytes int64

	// Timing is the per-phase wall-clock account of the run's fan-outs.
	Timing Timing
}

// ShardLoss records one worker loss: the round and phase whose fan-in ran
// short, and the [Lo, Hi) slice of that round's honest batch the slot held
// (the data that went missing from the round's tallies). Lo == Hi for a
// loss outside a data phase (configure, admission).
type ShardLoss struct {
	Round  int
	Phase  string
	Worker int
	Lo, Hi int
}

// focusParams resolves the adaptive-ε focus knobs: tighten ≤ 1 disables
// focusing entirely, and a requested tightening without an explicit window
// width gets the default ±5 percentile points.
func focusParams(tighten int, width float64) (int, float64) {
	if tighten <= 1 {
		return 0, 0
	}
	if width == 0 {
		width = 0.05
	}
	return tighten, width
}

// workerPool tracks the live workers of one game through an epoch-numbered
// fleet.Membership and fans directives out to them. Failures prune the
// membership (drop-and-continue): the merge order of the survivors stays
// the transport's worker order, so runs remain deterministic given the
// failure pattern. With a fleet supervisor attached, lost slots are offered
// re-admission at round boundaries (beginRound).
type workerPool struct {
	tr  cluster.Transport
	ms  *fleet.Membership
	sup *fleet.Supervisor

	// log and met are the observability handles (DESIGN.md §11). Both are
	// nil-receiver safe, so "observability off" needs no guards anywhere in
	// the engine — and cannot affect game state either way.
	log *obs.Logger
	met *obs.Registry

	// conf is the game's configure message (configureMessage), encoded once
	// before the engine starts: every slot is sent these bytes at game
	// start, and a re-admitted or growth slot is sent them again.
	conf []byte

	// ranges maps each slot to the per-leaf honest-batch [lo, hi) shares it
	// holds this round — the loss-report payload when a call to it fails. A
	// plain worker slot holds one range; an aggregator slot holds one per
	// live leaf of its subtree, in the subtree's leaf order, so a lost
	// subtree is recorded as one ShardLoss per shard it held.
	ranges map[int][][2]int

	// leaves/heights map each slot to the live leaf-worker count and merge
	// height behind it (1 and 0 for a plain worker), learned from its first
	// reply and refreshed from every reply — the coordinator never needs
	// to be told it is talking to an aggregator. topo counts leaf-topology
	// changes; together with the membership epoch it is the pipeline's
	// speculation validity stamp (a subtree leaf lost mid-call repartitions
	// the next round even though the coordinator's own membership is
	// unchanged).
	leaves  map[int]int
	heights map[int]int
	topo    int

	losses []ShardLoss

	// priorEvents is the membership history restored from a resume
	// snapshot; fleetLog()/wholeSince() report over the combined log.
	priorEvents []fleet.Event

	// callTimeout bounds every transport call when > 0 (fleet.Config
	// .CallTimeout): a hung worker then counts as failed and is dropped
	// instead of hanging the game.
	callTimeout time.Duration

	// egress counts every directive byte handed to the transport — the
	// coordinator's outbound traffic; egressConfig is the configure share
	// of it (pool/reference/dataset shipping, including re-admission
	// re-configures). Heartbeat probes are supervision-plane traffic and are
	// not counted.
	egress       int64
	egressConfig int64
	// ingress counts every reply byte those calls returned.
	ingress int64

	// timing accumulates the wall clock of every fan-out by phase.
	timing Timing
}

func newWorkerPool(tr cluster.Transport, conf []byte, log *obs.Logger, met *obs.Registry, fcfg *fleet.Config) *workerPool {
	p := &workerPool{
		tr:      tr,
		ms:      fleet.NewMembership(tr.Workers()),
		log:     log,
		met:     met,
		conf:    conf,
		ranges:  make(map[int][][2]int),
		leaves:  make(map[int]int),
		heights: make(map[int]int),
	}
	if fcfg != nil {
		cfg := *fcfg
		if cfg.Log == nil {
			cfg.Log = log
		}
		p.callTimeout = cfg.CallTimeout
		probe := func(w int) error {
			_, err := tr.Call(w, wire.EncodeDirective(nil, &wire.Directive{Op: wire.OpHeartbeat}))
			return err
		}
		var revive func(int) error
		if rv, ok := tr.(cluster.Reviver); ok {
			revive = rv.Revive
		}
		p.sup = fleet.NewSupervisor(tr.Workers(), cfg, probe, revive)
		// The supervisor and the pool must share one membership view.
		p.ms = p.sup.Membership()
	}
	return p
}

// alive returns the live slots in shard-slot order (shared; do not mutate).
func (p *workerPool) alive() []int { return p.ms.Alive() }

// epoch returns the current membership epoch — the pipeline's speculation
// validity stamp: a pending round built under one epoch may only be
// consumed under the same epoch.
func (p *workerPool) epoch() int { return p.ms.Epoch() }

// lost returns the number of loss events so far.
func (p *workerPool) lost() int { return len(p.losses) }

// totalLeaves is the live leaf-worker count across the fleet — the shard
// count the derived seed space partitions over this round.
func (p *workerPool) totalLeaves() int {
	t := 0
	for _, w := range p.alive() {
		t += p.leaves[w]
	}
	return t
}

// treeHeight is the maximum merge-graph height above the leaves (0: flat).
func (p *workerPool) treeHeight() int {
	h := 0
	for _, w := range p.alive() {
		if hh := p.heights[w]; hh > h {
			h = hh
		}
	}
	return h
}

// noteShape refreshes slot w's subtree shape from a reply, bumping the
// topology stamp — and with it the pipeline's validity — on any change.
func (p *workerPool) noteShape(w int, rep *wire.Report) {
	if p.leaves[w] == rep.Leaves && p.heights[w] == rep.Height {
		return
	}
	p.leaves[w] = rep.Leaves
	p.heights[w] = rep.Height
	p.topo++
	p.met.Gauge("trimlab_tree_leaves").Set(float64(p.totalLeaves()))
	p.met.Gauge("trimlab_tree_height").Set(float64(p.treeHeight()))
}

// noteLosses records the shard losses a reply reports from below an
// aggregator (Report.LostLeaves): the slot itself answered, but some leaves
// of its subtree did not, and their shards went missing from this round's
// tallies. Each lost leaf offset indexes the per-leaf ranges the slot was
// handed; the consumed entries are deleted so the offsets of a later phase
// of the same round still index correctly.
func (p *workerPool) noteLosses(round int, phase string, w int, rep *wire.Report) {
	if len(rep.LostLeaves) == 0 {
		return
	}
	b := p.ranges[w]
	lost := make(map[int]bool, len(rep.LostLeaves))
	for _, rel := range rep.LostLeaves {
		lost[rel] = true
		var lo, hi int
		if rel >= 0 && rel < len(b) {
			lo, hi = b[rel][0], b[rel][1]
		}
		p.losses = append(p.losses, ShardLoss{Round: round, Phase: phase, Worker: w, Lo: lo, Hi: hi})
		p.log.ShardLoss(round, phase, w, lo, hi, fmt.Errorf("collect: aggregator %d lost subtree leaf %d", w, rel))
		p.met.Counter("trimlab_shard_loss_total").Inc()
	}
	if len(b) > 0 {
		kept := make([][2]int, 0, len(b))
		for i, r := range b {
			if !lost[i] {
				kept = append(kept, r)
			}
		}
		p.ranges[w] = kept
	}
}

// fleetLog returns the full membership event log — a resumed run's prior
// history followed by this run's — with epochs renumbered by position (an
// epoch IS its event count).
func (p *workerPool) fleetLog() []fleet.Event {
	cur := p.ms.Events()
	if len(p.priorEvents) == 0 {
		return cur
	}
	log := append(append([]fleet.Event(nil), p.priorEvents...), cur...)
	for i := range log {
		log[i].Epoch = i + 1
	}
	return log
}

// wholeSince reports over the combined log, so a resumed run's degraded
// window stays visible to verification.
func (p *workerPool) wholeSince() int {
	if len(p.priorEvents) == 0 {
		return p.ms.WholeSince()
	}
	return fleet.WholeSinceLog(p.ms.Slots(), p.fleetLog())
}

// finishStats copies the pool's loss, membership, egress and timing
// accounting into a result — once, at game end.
func (p *workerPool) finishStats(s *ClusterStats) {
	s.LostShards = p.lost()
	s.Losses = p.losses
	s.FleetEvents = p.fleetLog()
	s.WholeSince = p.wholeSince()
	s.EgressBytes = p.egress
	s.EgressConfigBytes = p.egressConfig
	s.IngressBytes = p.ingress
	s.TreeLeaves = p.totalLeaves()
	s.TreeHeight = p.treeHeight()
	s.Timing = p.timing
}

// callWorker is one transport round trip, bounded by the fleet call
// timeout when one is configured (the abandoned goroutine of a timed-out
// call exits when the transport call finally returns).
func (p *workerPool) callWorker(w int, req []byte) ([]byte, error) {
	if p.callTimeout <= 0 {
		return p.tr.Call(w, req)
	}
	type result struct {
		out []byte
		err error
	}
	ch := make(chan result, 1)
	go func() {
		out, err := p.tr.Call(w, req)
		ch <- result{out, err}
	}()
	select {
	case r := <-ch:
		return r.out, r.err
	case <-time.After(p.callTimeout):
		return nil, fmt.Errorf("collect: call to worker %d timed out after %v", w, p.callTimeout)
	}
}

// callAll sends dirs[i] to the i-th live worker in parallel and returns the
// decoded reports of the workers that answered, in shard order (fanOut).
// Every directive is stamped with the round's trace ID — a pure function
// of the round number, so tracing never perturbs determinism — and
// encoded afresh.
func (p *workerPool) callAll(round int, phase string, dirs []*wire.Directive) ([]*wire.Report, error) {
	trace := obs.TraceID(round)
	reqs := make([][]byte, len(dirs))
	for i, d := range dirs {
		d.Trace = trace
		reqs[i] = wire.EncodeDirective(nil, d)
	}
	return p.fanOut(round, phase, reqs)
}

// fanOut sends reqs[i] to the i-th live worker in parallel and returns the
// decoded reports of the workers that answered, in shard order. Workers
// that fail are logged, recorded as shard losses and dropped from the
// membership; an empty pool is an error that carries the failed workers'
// own errors — the game cannot continue with zero shards.
//
// The replies' phase timings feed the per-worker straggler metrics, and
// the busiest worker's share is subtracted from the fan-out elapsed time
// to estimate the coordinator+network share (trimlab_phase_net_seconds).
//
// Several slots may be sent the same bytes — the configure message goes
// to every slot: transports and handlers only read a request, and a
// worker keeps read-only views of its configure (cluster.Handler), so an
// in-process fleet holds one copy of the configure data for all its
// workers and the coordinator. No request is modified or reused once
// sent. Egress still counts the bytes each slot is sent; ingress counts
// the bytes each slot answers with.
func (p *workerPool) fanOut(round int, phase string, reqs [][]byte) ([]*wire.Report, error) {
	start := obs.Now()
	var maxBusy time.Duration
	defer func() {
		elapsed := obs.Since(start)
		p.timing.add(phase, elapsed)
		p.met.Histogram("trimlab_phase_seconds", obs.TimeBuckets, "phase", phase).Observe(elapsed.Seconds())
		if net := elapsed - maxBusy; maxBusy > 0 && net > 0 {
			p.met.Histogram("trimlab_phase_net_seconds", obs.TimeBuckets, "phase", phase).Observe(net.Seconds())
		}
	}()
	alive := append([]int(nil), p.alive()...)
	reps := make([]*wire.Report, len(alive))
	errs := make([]error, len(alive))
	replied := make([]int, len(alive))
	for i := range alive {
		p.egress += int64(len(reqs[i]))
		p.met.Counter("trimlab_egress_bytes_total").Add(int64(len(reqs[i])))
		if phase == "configure" {
			p.egressConfig += int64(len(reqs[i]))
			p.met.Counter("trimlab_egress_config_bytes_total").Add(int64(len(reqs[i])))
		}
	}
	var wg sync.WaitGroup
	for i := range alive {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out, err := p.callWorker(alive[i], reqs[i])
			if err != nil {
				errs[i] = err
				return
			}
			replied[i] = len(out)
			reps[i], errs[i] = wire.DecodeReport(out)
		}(i)
	}
	wg.Wait()
	ingress := 0
	for _, n := range replied {
		ingress += n
	}
	p.ingress += int64(ingress)
	p.met.Counter("trimlab_ingress_bytes_total").Add(int64(ingress))

	kept := reps[:0]
	for i, w := range alive {
		if errs[i] != nil {
			p.drop(round, phase, w, errs[i])
			continue
		}
		// The transport index is authoritative (a TCP worker's self-id is
		// whatever it was launched with); reports are keyed by it.
		reps[i].Worker = w
		kept = append(kept, reps[i])
		p.noteLosses(round, phase, w, reps[i])
		p.noteShape(w, reps[i])
		if busy := p.recordWorker(w, reps[i]); busy > maxBusy {
			maxBusy = busy
		}
		if p.sup != nil {
			p.sup.Observe(w)
		}
	}
	if len(p.alive()) == 0 {
		return nil, fmt.Errorf("collect: all cluster workers lost by round %d: %w", round, distinctErrors(errs))
	}
	return kept, nil
}

// distinctErrors joins the non-nil errors of errs in slot order, each
// distinct message once — the reasons a fan-out lost every worker.
func distinctErrors(errs []error) error {
	var out []error
	seen := map[string]bool{}
	for _, err := range errs {
		if err != nil && !seen[err.Error()] {
			seen[err.Error()] = true
			out = append(out, err)
		}
	}
	return errors.Join(out...)
}

// recordWorker feeds one reply's phase timings into the per-worker metrics
// and returns the worker's total busy time for this call — the straggler
// signal fanOut nets out of the fan-out elapsed time.
func (p *workerPool) recordWorker(w int, rep *wire.Report) time.Duration {
	busy := time.Duration(rep.GenerateNanos + rep.SummarizeNanos + rep.ClassifyNanos)
	if p.met == nil {
		return busy
	}
	ws := strconv.Itoa(w)
	p.met.Counter("trimlab_worker_calls_total", "worker", ws).Inc()
	if rep.GenerateNanos > 0 {
		p.met.Counter("trimlab_worker_phase_nanos_total", "phase", "generate", "worker", ws).Add(rep.GenerateNanos)
	}
	if rep.SummarizeNanos > 0 {
		p.met.Counter("trimlab_worker_phase_nanos_total", "phase", "summarize", "worker", ws).Add(rep.SummarizeNanos)
	}
	// Ingest throughput (DESIGN.md §12): every summarize-bearing reply
	// carries the exact count of points the worker's sketches absorbed this
	// call; the per-worker gauge is the last call's points/second.
	if rep.Count > 0 {
		p.met.Counter("trimlab_ingest_points_total").Add(int64(rep.Count))
		p.met.Counter("trimlab_worker_ingest_points_total", "worker", ws).Add(int64(rep.Count))
		if rep.SummarizeNanos > 0 {
			p.met.Gauge("trimlab_worker_ingest_points_per_sec", "worker", ws).
				Set(float64(rep.Count) * 1e9 / float64(rep.SummarizeNanos))
		}
	}
	if rep.ClassifyNanos > 0 {
		p.met.Counter("trimlab_worker_phase_nanos_total", "phase", "classify", "worker", ws).Add(rep.ClassifyNanos)
	}
	// Per-level aggregator merge timings (DESIGN.md §13): MergeNanos[l] is
	// the slowest merge at tree level l+1 on this reply's path.
	for lvl, n := range rep.MergeNanos {
		p.met.Histogram("trimlab_agg_merge_seconds", obs.TimeBuckets, "level", strconv.Itoa(lvl+1)).
			Observe(float64(n) / 1e9)
	}
	return busy
}

// drop records one worker-slot loss and removes the slot from the
// membership. An aggregator slot takes its whole subtree down with it: one
// ShardLoss per leaf range it held this round.
func (p *workerPool) drop(round int, phase string, w int, err error) {
	bs := p.ranges[w]
	if len(bs) == 0 {
		bs = [][2]int{{0, 0}} // loss outside a data phase: no range held
	}
	for _, b := range bs {
		p.losses = append(p.losses, ShardLoss{Round: round, Phase: phase, Worker: w, Lo: b[0], Hi: b[1]})
		p.log.ShardLoss(round, phase, w, b[0], b[1], err)
		p.met.Counter("trimlab_shard_loss_total").Inc()
	}
	if p.sup != nil {
		p.sup.Drop(w, round)
	} else {
		p.ms.Drop(w, round)
	}
	p.met.Gauge("trimlab_fleet_epoch").Set(float64(p.ms.Epoch()))
	p.met.Gauge("trimlab_tree_leaves").Set(float64(p.totalLeaves()))
}

// beginRound applies the fleet supervision policy at a round boundary:
// staleness drops, then re-admission of down slots via the
// Hello/Configure/Join handshake. A no-op without a supervisor.
func (p *workerPool) beginRound(round int) {
	if p.sup == nil {
		return
	}
	p.sup.BeginRound(round, func(w, epoch int) error { return p.admit(round, w, epoch) })
}

// admit runs the game-level re-admission handshake with one revived slot:
// Hello asks for its state, Configure re-ships the data plane when the
// state died with the old process (a cold re-spawn answers Configured =
// false; a worker that survived a transient partition keeps its state and
// skips the shipment), Join grants membership from the new epoch.
// Admission traffic counts as egress (the configure share into
// egressConfig); a failure at any step leaves the slot down.
func (p *workerPool) admit(round, w, epoch int) error {
	start := obs.Now()
	defer func() { p.timing.add("admission", obs.Since(start)) }()
	hello, err := p.call1(w, &wire.Directive{Op: wire.OpHello, Round: round}, false)
	if err != nil {
		return err
	}
	if !hello.Configured {
		if _, err := p.send1(w, p.conf, true); err != nil {
			return err
		}
	}
	joined, err := p.call1(w, &wire.Directive{Op: wire.OpJoin, Round: round, Epoch: epoch}, false)
	if err != nil {
		return err
	}
	// An admitted aggregator brings its whole (revived) subtree back.
	p.noteShape(w, joined)
	p.met.Counter("trimlab_worker_rejoin_total").Inc()
	p.met.Gauge("trimlab_fleet_epoch").Set(float64(epoch))
	return nil
}

// call1 is one accounted directive round trip to a single worker.
func (p *workerPool) call1(w int, d *wire.Directive, isConfig bool) (*wire.Report, error) {
	d.Trace = obs.TraceID(d.Round)
	return p.send1(w, wire.EncodeDirective(nil, d), isConfig)
}

// send1 is one accounted round trip of an encoded request to a single
// worker; isConfig charges its bytes to the configure share of egress.
func (p *workerPool) send1(w int, req []byte, isConfig bool) (*wire.Report, error) {
	p.egress += int64(len(req))
	p.met.Counter("trimlab_egress_bytes_total").Add(int64(len(req)))
	if isConfig {
		p.egressConfig += int64(len(req))
		p.met.Counter("trimlab_egress_config_bytes_total").Add(int64(len(req)))
	}
	out, err := p.callWorker(w, req)
	if err != nil {
		return nil, err
	}
	p.ingress += int64(len(out))
	p.met.Counter("trimlab_ingress_bytes_total").Add(int64(len(out)))
	return wire.DecodeReport(out)
}

// configure sends the configure message — the sketch budget plus the
// one-time data-plane state (pool, reference, dataset, mechanism) — to
// every worker. Under fleet supervision the initial membership grant
// (Join, epoch 0) follows.
func (p *workerPool) configure() error {
	reqs := make([][]byte, len(p.alive()))
	for i := range reqs {
		reqs[i] = p.conf
	}
	if _, err := p.fanOut(0, "configure", reqs); err != nil {
		return err
	}
	if p.sup != nil {
		dirs := make([]*wire.Directive, len(p.alive()))
		for i := range dirs {
			dirs[i] = &wire.Directive{Op: wire.OpJoin, Epoch: 0}
		}
		if _, err := p.callAll(0, "join", dirs); err != nil {
			return err
		}
	}
	return nil
}

// configureMessage encodes a game's configure directive — the bytes the
// pool sends every slot at game start and at re-admission, stamped as
// round 0's configure. The scalar and LDP games then read their sorted
// reference or input pool back out of it (wire.DecodeDirective) as views
// of these very bytes, so neither the coordinator nor an in-process fleet
// keeps a second copy.
func configureMessage(d wire.Directive) []byte {
	d.Op = wire.OpConfigure
	d.Trace = obs.TraceID(0)
	return wire.EncodeDirective(nil, &d)
}

// stop releases the workers (best effort: a worker that already died is
// already logged), stops the supervisor and closes the transport.
func (p *workerPool) stop() {
	for _, w := range p.alive() {
		if _, err := p.callWorker(w, wire.EncodeDirective(nil, &wire.Directive{Op: wire.OpStop})); err != nil {
			p.log.Logf("collect: stopping worker %d: %v", w, err)
		}
	}
	if p.sup != nil {
		p.sup.Close()
	}
	if err := p.tr.Close(); err != nil {
		p.log.Logf("collect: closing transport: %v", err)
	}
}

// setRanges records each live slot's per-leaf honest-batch shares for the
// round — the loss-report payload should a call to it (or a subtree leaf
// below it) fail.
func (p *workerPool) setRanges(bounds map[int][][2]int) {
	p.ranges = bounds
}

// classifyDirs builds the phase-2 threshold broadcast for the live workers.
// The phase-1 ranges stay registered: a classify loss loses the same slice.
func (p *workerPool) classifyDirs(round int, pct, threshold float64) []*wire.Directive {
	dirs := make([]*wire.Directive, len(p.alive()))
	for i := range dirs {
		dirs[i] = &wire.Directive{Op: wire.OpClassify, Round: round, Pct: pct, Threshold: threshold}
	}
	return dirs
}

// addCounts folds one shard's classification tallies into a round record.
func addCounts(rec *RoundRecord, c wire.Counts) {
	rec.HonestKept += c.HonestKept
	rec.HonestTrimmed += c.HonestTrimmed
	rec.PoisonKept += c.PoisonKept
	rec.PoisonTrimmed += c.PoisonTrimmed
}

// mergeSummarizeReports merges shard summaries in shard order — the
// ε-lossless merge (ε_merged = max ε_i), one summary.MergeAll — and
// accumulates the exact observation count and value sum the reports carry
// alongside.
func mergeSummarizeReports(reps []*wire.Report) (merged *summary.Summary, count int, sum float64) {
	parts := make([]*summary.Summary, 0, len(reps))
	for _, rep := range reps {
		if rep.Sum == nil {
			continue
		}
		parts = append(parts, rep.Sum)
		count += rep.Count
		sum += rep.ValueSum
	}
	return summary.MergeAll(parts), count, sum
}

// genShare is the generation accounting behind one top-level slot: the
// specs of the cells its subtree draws (leaf-major, sub-shards within a
// leaf), so a partial subtree loss reported back by an aggregator can be
// left out of the round's expectations.
type genShare []arrival.Spec

// drawn totals the cells a reply covers — all of the slot's cells except
// those of its lost leaves (subs cells per leaf).
func (g genShare) drawn(lostLeaves []int, subs int) arrival.Spec {
	spec := g[0]
	spec.HonestN, spec.PoisonN = 0, 0
	for c, cell := range g {
		if !slices.Contains(lostLeaves, c/subs) {
			spec.HonestN += cell.HonestN
			spec.PoisonN += cell.PoisonN
		}
	}
	return spec
}

// pending is one speculated round of a pipelined run: the generate reports
// that came back piggybacked on the previous classify broadcast, valid
// while the membership epoch AND the leaf topology they were built under
// still hold.
type pending struct {
	inject   attack.InjectionSpec
	reps     []*wire.Report
	byWorker map[int]genShare
	bounds   map[int][][2]int
	epoch    int
	topo     int
}

// engine drives one cluster game over a worker pool: the round loop, both
// fan-outs per round, the record bookkeeping, and — when enabled — the
// pipelined schedule. The per-game behavior plugs in through game.
type engine struct {
	game      Game
	pool      *workerPool
	board     *Board
	collector trim.Strategy

	rounds    int
	batch     int
	poison    int
	baselineQ float64

	// gen derives every (cell, round) seed; si draws each round's
	// injection spec from the adversary.
	gen *ShardGen
	si  attack.SpecInjector

	// subShards is the per-worker sub-shard count C (≥ 1): each worker's
	// slot is split into C independently seeded sub-draws generated and
	// summarized in parallel. 1 = one shard per worker.
	subShards int

	// focusTighten/focusWidth are the resolved adaptive-ε focus knobs
	// (focusParams): when tighten > 1, every phase-1 directive tells the
	// workers to keep tighten× denser rank coverage in a ±width percentile
	// window around the focus anchor.
	focusTighten int
	focusWidth   float64

	// lastPct is the focus anchor: the previous posted round's threshold
	// percentile. Anchoring on round r−1 (not r) is what keeps the schedule
	// identical under pipelining — round r+1's speculated directives are
	// built while round r's percentile is already fixed, before r+1's own
	// percentile exists. Round 1 anchors on its own percentile.
	lastPct  float64
	haveLast bool

	// pipeline enables the overlapped round schedule.
	pipeline bool

	// elastic is the remaining fleet-growth schedule (ClusterConfig
	// .Elastic, validated ascending) and nextGrow the first held-out growth
	// slot not yet offered admission: at the top of round Round the next Add
	// of them are admitted (growFleet).
	elastic  []GrowStep
	nextGrow int

	onRound func(RoundRecord)

	// resume, when non-nil, restores a checkpointed game after the
	// configure fan-out and returns the round to continue at.
	resume func() (int, error)

	// checkpointDue/checkpoint implement the snapshot cadence (the scalar and
	// row games); nil disables.
	checkpointDue func(r int) bool
	checkpoint    func(r int) error
}

// run plays the game: configure (and resume, if any), then the round loop.
func (en *engine) run() error {
	if err := en.pool.configure(); err != nil {
		return err
	}
	start := 1
	if en.resume != nil {
		var err error
		if start, err = en.resume(); err != nil {
			return err
		}
	}
	var pend *pending
	for r := start; r <= en.rounds; r++ {
		if len(en.elastic) > 0 && en.elastic[0].Round == r {
			if err := en.growFleet(r, en.elastic[0].Add); err != nil {
				return err
			}
			en.elastic = en.elastic[1:]
		}
		en.pool.beginRound(r)
		pct := en.collector.Threshold(r, en.board.collectorView())

		// Phase 1: obtain the round's shard summaries — from the pipeline's
		// speculative fan-out when it is still valid, else a fresh fan-out.
		reps, byWorker, err := en.phase1(r, pct, &pend)
		if err != nil {
			return err
		}
		var pctSum float64
		roundPoison := 0
		for _, rep := range reps {
			// A partial subtree reply covers fewer cells than directed: the
			// lost leaves' cells drop out of the expectations.
			spec := byWorker[rep.Worker].drawn(rep.LostLeaves, en.subShards)
			// Reports carry one percentile subtotal per cell drawn; the flat
			// cell-order fold matches an L·C-shard RunSharded's fold bit for
			// bit, which is what keeps MeanInjectionPct — and hence the
			// records — shape-invariant.
			for _, p := range rep.PctSums {
				pctSum += p
			}
			roundPoison += spec.PoisonN
			en.game.foldGen(rep, spec)
		}
		mergeStart := obs.Now()
		merged, mCount, mSum := mergeSummarizeReports(reps)
		mergeD := obs.Since(mergeStart)
		en.pool.timing.Merge += mergeD
		en.pool.met.Histogram("trimlab_coord_merge_seconds", obs.TimeBuckets).Observe(mergeD.Seconds())

		rec := RoundRecord{
			Round:           r,
			ThresholdPct:    pct,
			ThresholdValue:  en.game.threshold(pct, merged),
			Quality:         en.game.quality(merged),
			BaselineQuality: en.baselineQ,
		}
		if roundPoison > 0 {
			rec.MeanInjectionPct = pctSum / float64(roundPoison)
		} else {
			rec.MeanInjectionPct = math.NaN()
		}

		// Phase 2: broadcast the threshold — with round r+1's generation
		// piggybacked when the pipeline may speculate — and fold counts and
		// kept-pool deltas.
		creps, err := en.classifyRound(r, pct, rec.ThresholdValue, &pend)
		if err != nil {
			return err
		}
		for _, rep := range creps {
			addCounts(&rec, rep.Counts)
			if err := en.game.foldClassify(en, r, &rec, rep); err != nil {
				return err
			}
		}
		en.game.endRound(merged, mCount, mSum)
		en.board.Post(rec)
		en.lastPct, en.haveLast = pct, true
		en.pool.timing.Rounds++
		en.observeRound(rec)
		if en.onRound != nil {
			en.onRound(rec)
		}
		if en.checkpointDue != nil && en.checkpointDue(r) {
			if err := en.checkpoint(r); err != nil {
				return err
			}
		}
	}
	return nil
}

// observeRound publishes one posted round record to the metrics registry:
// live gauges for the current round and threshold, running totals for the
// kept/trimmed tallies. Read-only over the record — metrics never feed
// game state.
func (en *engine) observeRound(rec RoundRecord) {
	met := en.pool.met
	if met == nil {
		return
	}
	met.Counter("trimlab_rounds_total").Inc()
	met.Gauge("trimlab_round").Set(float64(rec.Round))
	met.Gauge("trimlab_threshold_pct").Set(rec.ThresholdPct)
	met.Gauge("trimlab_threshold_value").Set(rec.ThresholdValue)
	met.Counter("trimlab_honest_kept_total").Add(int64(rec.HonestKept))
	met.Counter("trimlab_honest_trimmed_total").Add(int64(rec.HonestTrimmed))
	met.Counter("trimlab_poison_kept_total").Add(int64(rec.PoisonKept))
	met.Counter("trimlab_poison_trimmed_total").Add(int64(rec.PoisonTrimmed))
}

// stampFocus writes the adaptive-ε focus window onto a phase-1 directive:
// tighten× denser rank coverage in anchor ± width, when enabled.
func (en *engine) stampFocus(d *wire.Directive, anchor float64) {
	if en.focusTighten <= 1 {
		return
	}
	d.FocusPct = anchor
	d.FocusWidth = en.focusWidth
	d.FocusTighten = en.focusTighten
}

// phase1 produces round r's summarize reports. Order of preference: consume
// the speculated fan-out (no RTT), rebuild it from the already-drawn spec
// after a flush, or fan a fresh generate. pct is round r's threshold
// percentile — the focus anchor of round 1 only (later rounds anchor on
// lastPct).
func (en *engine) phase1(r int, pct float64, pend **pending) ([]*wire.Report, map[int]genShare, error) {
	anchor := pct
	if en.haveLast {
		anchor = en.lastPct
	}
	if p := *pend; p != nil {
		*pend = nil
		if p.epoch == en.pool.epoch() && p.topo == en.pool.topo {
			// The speculation is still valid: this round's phase 1 already
			// rode on the previous classify broadcast.
			en.pool.setRanges(p.bounds)
			return p.reps, p.byWorker, nil
		}
		// Flush: the membership changed between speculation and consumption
		// (a worker lost during the combined call, or a boundary drop or
		// re-admission). The injection spec was drawn exactly once already —
		// rebuild the directives over the new live set and re-fan; workers
		// overwrite their speculated round state.
		en.pool.log.PipelineFlush(r, p.epoch, en.pool.epoch())
		en.pool.met.Counter("trimlab_pipeline_flush_total").Inc()
		return en.generate(r, anchor, p.inject)
	}
	return en.generate(r, anchor, en.si.InjectionSpec(r, en.board.adversaryView()))
}

// genDirs builds the phase-1 directives for round r from a
// drawn injection spec: one O(1) generator spec per live slot, the RNG
// seeds derived per (leaf cell, round). The flat seed space has one cell
// per (leaf, sub-shard), L·C cells in all, cut on shardBounds — so the
// union of all draws equals a flat L·C-shard reference draw exactly
// (shardBounds composes: the flat split refines every coarser split on the
// same boundaries). A flat fleet is the L = live-worker-count special case;
// an aggregator slot fronting l leaves receives its l·C consecutive cells
// and splits them positionally among its children, leaf workers receiving
// exactly C. anchor is the focus anchor percentile. Loss ranges are NOT
// registered here: a speculative build must not clobber the in-flight
// round's ranges (the caller registers them at consumption).
func (en *engine) genDirs(r int, anchor float64, inject attack.InjectionSpec) ([]*wire.Directive, map[int]genShare, map[int][][2]int) {
	alive := en.pool.alive()
	subs := en.subShards
	leafCount := make([]int, len(alive))
	leavesTotal := 0
	for i, w := range alive {
		leafCount[i] = en.pool.leaves[w]
		leavesTotal += leafCount[i]
	}
	rg := en.game.genRound(r)
	flat := genSpecs(en.batch, en.poison, inject, rg.jitter, leavesTotal*subs)
	dirs := make([]*wire.Directive, len(alive))
	byWorker := make(map[int]genShare, len(alive))
	bounds := make(map[int][][2]int, len(alive))
	off := 0 // leaf offset of slot i in the flat leaf order
	for i, w := range alive {
		l := leafCount[i]
		cells := flat[off*subs : (off+l)*subs]
		seeds := make([]int64, len(cells))
		for c := range cells {
			seeds[c] = en.gen.seed(off*subs+c, r)
		}
		dirs[i] = &wire.Directive{Op: wire.OpGenerate, Round: r, Center: rg.center, Gen: arrival.SpecToWire(seeds, cells)}
		dirs[i].Gen.Scale = rg.scale
		en.stampFocus(dirs[i], anchor)
		byWorker[w] = cells
		bs := make([][2]int, l)
		for j := 0; j < l; j++ {
			lo, hi := shardBounds(en.batch, leavesTotal, off+j)
			bs[j] = [2]int{lo, hi}
		}
		bounds[w] = bs
		off += l
	}
	return dirs, byWorker, bounds
}

// generate fans a standalone phase 1 out for round r.
func (en *engine) generate(r int, anchor float64, inject attack.InjectionSpec) ([]*wire.Report, map[int]genShare, error) {
	dirs, byWorker, bounds := en.genDirs(r, anchor, inject)
	en.pool.setRanges(bounds)
	reps, err := en.pool.callAll(r, "generate", dirs)
	return reps, byWorker, err
}

// growFleet admits the next k held-out growth slots at the top of round r
// (the elastic-fleet epoch boundary, DESIGN.md §13) exactly as the
// supervisor re-admits a lost slot (§8): the Hello/Configure/Join
// handshake, then one membership epoch and one fleet-admit event per
// slot — which flushes any round speculated over the old width. A slot
// whose handshake fails is charged one loss and stays out; the survivors
// serve from round r, which therefore repartitions the derived seed space
// exactly as a game started at the wider width would.
func (en *engine) growFleet(r, k int) error {
	p := en.pool
	for s := en.nextGrow; s < en.nextGrow+k; s++ {
		epoch := p.epoch() + 1
		if err := p.admit(r, s, epoch); err != nil {
			p.drop(r, "grow", s, err)
			continue
		}
		if err := p.ms.Admit(s, r); err != nil {
			return err
		}
		p.log.FleetAdmit(r, s, epoch)
	}
	en.nextGrow += k
	p.met.Gauge("trimlab_tree_leaves").Set(float64(p.totalLeaves()))
	return nil
}

// classifyRound fans round r's threshold broadcast out. When the pipeline
// may speculate, round r+1's generator specs ride along as a combined
// OpClassifyGenerate and the replies (classify r + summarize r+1 in one)
// are stashed in pend for the next iteration.
func (en *engine) classifyRound(r int, pct, threshold float64, pend **pending) ([]*wire.Report, error) {
	if en.speculate(r) {
		// Draw round r+1's injection spec now: the adversary's view after
		// round r is {Round, ThresholdPct}, both already fixed — identical
		// to what an unpipelined run would pass after posting the record.
		inject := en.si.InjectionSpec(r+1, attack.Observation{Round: r, ThresholdPct: pct})
		// Round r+1 anchors its focus on round r's percentile — exactly what
		// the plain path's lastPct resolves to after this round posts.
		gdirs, byWorker, bounds := en.genDirs(r+1, pct, inject)
		dirs := en.pool.classifyDirs(r, pct, threshold)
		for i := range dirs {
			dirs[i].Op = wire.OpClassifyGenerate
			dirs[i].Gen = gdirs[i].Gen
			dirs[i].Center = gdirs[i].Center // row game: the speculated round's late center
			dirs[i].FocusPct = gdirs[i].FocusPct
			dirs[i].FocusWidth = gdirs[i].FocusWidth
			dirs[i].FocusTighten = gdirs[i].FocusTighten
		}
		// The epoch and topology stamps are taken before the call: a worker
		// (or subtree leaf) lost during the combined broadcast bumps one of
		// them and invalidates the speculation.
		next := &pending{inject: inject, byWorker: byWorker, bounds: bounds, epoch: en.pool.epoch(), topo: en.pool.topo}
		reps, err := en.pool.callAll(r, "classify+generate", dirs)
		if err != nil {
			return nil, err
		}
		next.reps = reps
		*pend = next
		return reps, nil
	}
	return en.pool.callAll(r, "classify", en.pool.classifyDirs(r, pct, threshold))
}

// speculate reports whether round r+1's generation may ride on round r's
// classify broadcast: the pipeline is on, the game is speculation-safe, a
// next round exists, and no checkpoint is due at this
// boundary — checkpoints cut at a drained pipeline, so a resumed run
// replays exactly what the checkpointing run did.
func (en *engine) speculate(r int) bool {
	return en.pipeline && en.game.speculative() && r < en.rounds &&
		!(en.checkpointDue != nil && en.checkpointDue(r))
}
