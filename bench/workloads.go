package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"net"
	"sync"
	"time"

	"repro/internal/agg"
	"repro/internal/cluster"
	"repro/internal/collect"
	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/ldp"
	"repro/internal/obs"
	"repro/internal/stats"
)

// game is the collection game a workload plays.
type game int

const (
	scalarGame game = iota
	rowsGame
	ldpGame
)

// attackRatio is the poison budget of every workload: 20% of the honest
// batch per round.
const attackRatio = 0.2

// topology is the fleet behind the coordinator's transport.
type topology struct {
	leaves int  // leaf workers
	fanin  int  // > 0: fold the leaves under aggregator nodes, as agg.NewTree does
	tcp    bool // serve each leaf on its own 127.0.0.1 socket (flat fleets only)
}

// workload is one fixed game shape. Every workload is a closed loop — the
// coordinator starts round r+1 only after round r is posted — and every
// game is shard-local and pipelined.
type workload struct {
	name   string
	why    string
	game   game
	topo   topology
	obs    bool // scalar game: attach an obs.Registry and a ring obs.Logger, as `trimlab coordinator` does
	rounds int
	batch  int // honest arrivals per round; poison adds attackRatio·batch
	pool   int // scalar reference pool, row dataset rows, or LDP input pool
}

// workloads are chosen in pairs around each mechanism an optimisation could
// target: scalar-bulk exercises generation and ingest while scalar-chatty-tcp
// bypasses them for per-round fixed costs; rows-tree is the only workload
// with aggregator merges, vector deltas and kept-row page-out; ldp-wide
// widens the coordinator's direct fan-out the tree would otherwise hide.
var workloads = []workload{
	{
		name:   "scalar-bulk",
		why:    "scalar Elastic game, 4 loopback workers, batch 200k: worker generation and sketch ingest dominate, codec and transport are nearly free",
		game:   scalarGame,
		topo:   topology{leaves: 4},
		rounds: 130, batch: 200_000, pool: 1_000_000,
	},
	{
		name:   "scalar-chatty-tcp",
		why:    "scalar Elastic game, 2 TCP workers, batch 2k, obs on: per-round fixed costs (codec, net/rpc, engine, obs) dominate and ingest is negligible",
		game:   scalarGame,
		topo:   topology{leaves: 2, tcp: true},
		obs:    true,
		rounds: 3500, batch: 2000, pool: 1_000_000,
	},
	{
		name:   "rows-tree",
		why:    "row Titfortat game, 16 leaves under fan-in-4 aggregators: the only workload with aggregator merges, vector deltas and kept-row page-out",
		game:   rowsGame,
		topo:   topology{leaves: 16, fanin: 4},
		rounds: 110, batch: 4000, pool: 20_000,
	},
	{
		name:   "ldp-wide",
		why:    "LDP Elastic game, 32 flat loopback workers, batch 150k: perturbation dominates generation and the coordinator folds 32 direct slots a round",
		game:   ldpGame,
		topo:   topology{leaves: 32},
		rounds: 110, batch: 150_000, pool: 250_000,
	},
}

func lookup(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// arrivals is the number of points one round delivers.
func (w workload) arrivals() int {
	return w.batch + int(math.Round(attackRatio*float64(w.batch)))
}

// scheme returns fresh strategies for one game (they are stateful).
func (w workload) scheme() (experiments.Scheme, error) {
	switch w.game {
	case rowsGame:
		return experiments.NewScheme(experiments.Titfortat, 0.95, 0.5)
	case ldpGame:
		return experiments.NewScheme(experiments.Elastic05, 0.95, 0.5)
	default:
		return experiments.NewScheme(experiments.Elastic05, 0.9, 0.5)
	}
}

// inputs are everything a workload derives from the seed. They are built
// once per invocation and shared by the reference and every game.
type inputs struct {
	gen  *collect.ShardGen
	ref  []float64        // scalar: N(0,1) reference, also the honest pool
	data *dataset.Dataset // rows
	in   []float64        // LDP inputs
}

func (w workload) inputs(seed int64) (*inputs, error) {
	rng := stats.NewShardRand(seed, 1, 0)
	in := &inputs{gen: &collect.ShardGen{MasterSeed: stats.DeriveSeed(seed, 2, 0)}}
	switch w.game {
	case scalarGame:
		in.ref = stats.NormalSlice(rng, w.pool, 0, 1)
	case rowsGame:
		in.data = dataset.VehicleN(rng, w.pool)
	case ldpGame:
		col, err := dataset.TaxiN(rng, w.pool).Column(0)
		if err != nil {
			return nil, err
		}
		in.in = col
	}
	return in, nil
}

func (w workload) scalarConfig(in *inputs, s experiments.Scheme, rounds int, onRound func(collect.RoundRecord)) collect.Config {
	return collect.Config{
		Rounds: rounds, Batch: w.batch, AttackRatio: attackRatio,
		Reference: in.ref, Collector: s.Collector, Adversary: s.Adversary,
		OnRound: onRound,
	}
}

func (w workload) rowConfig(in *inputs, s experiments.Scheme, rounds int, onRound func(collect.RoundRecord)) collect.RowConfig {
	return collect.RowConfig{
		Rounds: rounds, Batch: w.batch, AttackRatio: attackRatio,
		Data: in.data, Collector: s.Collector, Adversary: s.Adversary,
		PoisonLabel: -1, OnRound: onRound,
	}
}

func (w workload) ldpConfig(in *inputs, s experiments.Scheme, rounds int, onRound func(collect.RoundRecord)) (collect.LDPConfig, error) {
	mech, err := ldp.NewPiecewise(2)
	if err != nil {
		return collect.LDPConfig{}, err
	}
	return collect.LDPConfig{
		Rounds: rounds, Batch: w.batch, AttackRatio: attackRatio,
		Inputs: in.in, Mechanism: mech, Collector: s.Collector, Adversary: s.Adversary,
		OnRound: onRound,
	}, nil
}

// outcome is what a game is verified by against the reference.
type outcome struct {
	records    []collect.RoundRecord
	keptN      int     // scalar: Kept stream count; rows: kept rows
	keptSum    float64 // scalar: Kept stream sum
	keptPoison int     // rows
	paged      int     // rows: kept rows paged out at game end
	digest     uint64  // rows: digest of the kept rows and labels in leaf order
	mean       float64 // LDP: mean estimate
	trueMean   float64 // LDP: mean of the honest inputs drawn
	lost       int     // shard losses
	merge      time.Duration
}

// reference plays the workload's game once on the flat, unpipelined
// single-process engine over the same leaf count and seed.
func (w workload) reference(in *inputs) (*outcome, error) {
	s, err := w.scheme()
	if err != nil {
		return nil, err
	}
	switch w.game {
	case rowsGame:
		res, err := collect.RunShardedRows(collect.RowShardedConfig{
			RowConfig: w.rowConfig(in, s, w.rounds, nil),
			Shards:    w.topo.leaves, Gen: in.gen, LateCenter: true,
		})
		if err != nil {
			return nil, err
		}
		d := newRowDigest()
		d.add(res.Kept.X, res.Kept.Y)
		return &outcome{records: res.Board.Records, keptN: d.n, keptPoison: res.KeptPoison, digest: d.h.Sum64()}, nil
	case ldpGame:
		cfg, err := w.ldpConfig(in, s, w.rounds, nil)
		if err != nil {
			return nil, err
		}
		res, err := collect.RunShardedLDP(collect.LDPShardedConfig{LDPConfig: cfg, Shards: w.topo.leaves, Gen: in.gen})
		if err != nil {
			return nil, err
		}
		return &outcome{records: res.Board.Records, mean: res.MeanEstimate, trueMean: res.TrueMean}, nil
	default:
		res, err := collect.RunSharded(collect.ShardedConfig{
			Config: w.scalarConfig(in, s, w.rounds, nil),
			Shards: w.topo.leaves, Gen: in.gen,
		})
		if err != nil {
			return nil, err
		}
		return &outcome{records: res.Board.Records, keptN: res.Kept.Count(), keptSum: res.Kept.Sum()}, nil
	}
}

// verify compares a game with the reference: every board record, then the
// game's own end state.
func (w workload) verify(got, want *outcome) error {
	if got.lost != 0 {
		return fmt.Errorf("%d shard losses", got.lost)
	}
	if len(got.records) != len(want.records) {
		return fmt.Errorf("%d rounds posted, reference %d", len(got.records), len(want.records))
	}
	for i := range want.records {
		if !got.records[i].Equal(want.records[i]) {
			return fmt.Errorf("round %d diverged from the reference:\ngot  %+v\nwant %+v", i+1, got.records[i], want.records[i])
		}
	}
	switch w.game {
	case rowsGame:
		if got.keptN != want.keptN || got.keptPoison != want.keptPoison || got.digest != want.digest {
			return fmt.Errorf("kept rows %d (poison %d, digest %x), reference %d (poison %d, digest %x)",
				got.keptN, got.keptPoison, got.digest, want.keptN, want.keptPoison, want.digest)
		}
	case ldpGame:
		// The engines fold the workers' float sums in the same slot order, so
		// only round-off separates them (the tolerance of the repo's own
		// tree-vs-flat LDP equality test).
		if math.Abs(got.mean-want.mean) > 1e-9 || math.Abs(got.trueMean-want.trueMean) > 1e-9 {
			return fmt.Errorf("mean estimate %v (true %v), reference %v (true %v)", got.mean, got.trueMean, want.mean, want.trueMean)
		}
	default:
		if got.keptN != want.keptN || got.keptSum != want.keptSum {
			return fmt.Errorf("kept count %d sum %v, reference %d sum %v", got.keptN, got.keptSum, want.keptN, want.keptSum)
		}
	}
	return nil
}

// play runs one game of p.rounds rounds on a freshly built fleet. The probe's
// clock starts at the fleet build, so set-up covers building (or dialing)
// the fleet and every coordinator-side step up to the configure fan-out.
func (w workload) play(in *inputs, p *probe) (*outcome, error) {
	s, err := w.scheme()
	if err != nil {
		return nil, err
	}
	if p.trace {
		if s, err = p.timed(s); err != nil {
			return nil, err
		}
	}
	p.start()
	tr, wait, err := w.build(p)
	if err != nil {
		return nil, err
	}
	defer wait()
	switch w.game {
	case rowsGame:
		d := newRowDigest()
		res, err := collect.RunClusterRows(collect.RowClusterConfig{
			RowConfig: w.rowConfig(in, s, p.rounds, p.onRound),
			Transport: tr, Gen: in.gen, LateCenter: true, Pipeline: true,
			Consume: func(_ int, rows [][]float64, labels []int) error {
				d.add(rows, labels)
				return nil
			},
		})
		p.finish()
		if err != nil {
			return nil, err
		}
		return &outcome{
			records: res.Board.Records, keptN: d.n, keptPoison: res.KeptPoison, digest: d.h.Sum64(),
			paged: d.n, lost: res.LostShards, merge: res.Timing.Merge,
		}, nil
	case ldpGame:
		cfg, err := w.ldpConfig(in, s, p.rounds, p.onRound)
		if err != nil {
			return nil, err
		}
		res, err := collect.RunClusterLDP(collect.LDPClusterConfig{LDPConfig: cfg, Transport: tr, Gen: in.gen, Pipeline: true})
		p.finish()
		if err != nil {
			return nil, err
		}
		return &outcome{
			records: res.Board.Records, mean: res.MeanEstimate, trueMean: res.TrueMean,
			lost: res.LostShards, merge: res.Timing.Merge,
		}, nil
	default:
		cfg := collect.ClusterConfig{
			Config:    w.scalarConfig(in, s, p.rounds, p.onRound),
			Transport: tr, Gen: in.gen, Pipeline: true,
		}
		if w.obs {
			cfg.Metrics = obs.NewRegistry()
			cfg.Log = obs.NewLogger(obs.NewRing(256).Sink())
		}
		res, err := collect.RunCluster(cfg)
		p.finish()
		if err != nil {
			return nil, err
		}
		return &outcome{
			records: res.Board.Records, keptN: res.Kept.Count(), keptSum: res.Kept.Sum(),
			lost: res.LostShards, merge: res.Timing.Merge,
		}, nil
	}
}

// build stands the workload's fleet up behind the probe and returns the
// coordinator's transport plus a function that releases the fleet once the
// game is over.
func (w workload) build(p *probe) (cluster.Transport, func(), error) {
	leaves := make([]*probeHandler, w.topo.leaves)
	for i := range leaves {
		leaves[i] = p.handler("worker.handle", i, cluster.NewWorker(i))
	}
	if w.topo.tcp {
		return serveTCP(p, leaves)
	}
	tops := leaves
	if w.topo.fanin > 0 {
		var err error
		if tops, err = tree(p, leaves, w.topo.fanin); err != nil {
			return nil, nil, err
		}
	}
	return p.transport(slots(tops), tops), func() {}, nil
}

// tree folds the leaves under aggregator nodes in the shape agg.NewTree
// builds: consecutive groups of fanin, level by level, until at most fanin
// top slots remain. The benchmark assembles the nodes itself because
// agg.Tree keeps its leaves out of the probe's reach.
func tree(p *probe, leaves []*probeHandler, fanin int) ([]*probeHandler, error) {
	cur := leaves
	for len(cur) > fanin {
		var next []*probeHandler
		for lo := 0; lo < len(cur); lo += fanin {
			group := cur[lo:min(lo+fanin, len(cur))]
			parent := p.handler("agg.handle", len(next), nil)
			children := make([]agg.Child, len(group))
			for i, h := range group {
				children[i] = &probeChild{Child: agg.HandlerChild(h), parent: parent, child: h}
			}
			node, err := agg.NewNode(len(next), children...)
			if err != nil {
				return nil, err
			}
			if p.trace {
				if p.aggMet == nil {
					p.aggMet = obs.NewRegistry()
				}
				node.SetMetrics(p.aggMet)
			}
			parent.Handler = node
			next = append(next, parent)
		}
		cur = next
	}
	return cur, nil
}

// slots is the in-process transport over the top-level handlers: the
// loopback's dispatch without its failure injection, so that every handler
// the coordinator reaches is one the probe wraps.
type slots []*probeHandler

func (s slots) Workers() int { return len(s) }

func (s slots) Call(w int, req []byte) ([]byte, error) {
	if w < 0 || w >= len(s) {
		return nil, fmt.Errorf("bench: no slot %d", w)
	}
	return s[w].Handle(req)
}

func (s slots) Close() error { return nil }

// serveTCP serves every leaf on its own 127.0.0.1 listener through
// cluster.Serve and dials them. The release function closes the listeners
// and the transport — both no-ops after a game that stopped its workers —
// and waits for the serving goroutines.
func serveTCP(p *probe, leaves []*probeHandler) (cluster.Transport, func(), error) {
	var wg sync.WaitGroup
	lns := make([]net.Listener, 0, len(leaves))
	release := func() {
		for _, ln := range lns {
			ln.Close()
		}
		wg.Wait()
	}
	addrs := make([]string, len(leaves))
	for i, h := range leaves {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			release()
			return nil, nil, err
		}
		lns = append(lns, ln)
		addrs[i] = ln.Addr().String()
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Serve's only errors are a failed Accept, which the game sees as
			// a failed call, and the listener closed by release.
			_ = cluster.Serve(ln, h)
		}()
	}
	tr, err := cluster.Dial(addrs, 5*time.Second)
	if err != nil {
		release()
		return nil, nil, err
	}
	return p.transport(tr, leaves), func() {
		tr.Close()
		release()
	}, nil
}

// rowDigest hashes kept rows and their labels, in delivery order.
type rowDigest struct {
	h   hash.Hash64
	buf []byte
	n   int
}

func newRowDigest() *rowDigest { return &rowDigest{h: fnv.New64a()} }

func (d *rowDigest) add(rows [][]float64, labels []int) {
	for i, row := range rows {
		d.buf = d.buf[:0]
		for _, v := range row {
			d.buf = binary.LittleEndian.AppendUint64(d.buf, math.Float64bits(v))
		}
		if labels != nil {
			d.buf = binary.LittleEndian.AppendUint64(d.buf, uint64(labels[i]))
		}
		d.h.Write(d.buf)
	}
	d.n += len(rows)
}
