package collect

import (
	"bytes"
	"maps"
	"math"
	"net"
	"slices"
	"strconv"
	"testing"
	"time"

	"repro/internal/agg"
	"repro/internal/attack"
	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/wire"
)

// treeShapes are the aggregator topologies the equality matrix runs:
// leaves × fan-in covering heights 1..3 and fan-ins 2..8.
var treeShapes = []struct {
	name   string
	leaves int
	fanin  int
}{
	{"16-leaves-fanin4-h2", 16, 4},
	{"8-leaves-fanin2-h2", 8, 2},
	{"16-leaves-fanin2-h3", 16, 2},
	{"12-leaves-fanin8-h1", 12, 8},
}

// The tentpole acceptance bar (DESIGN.md §13): a cluster run fanning out
// through a loopback aggregator tree reproduces the flat RunSharded
// reference over the same leaf count record for record — the tree regroups
// the merge, it never changes it.
func TestAggTreeEqualsFlatScalar(t *testing.T) {
	for _, shape := range treeShapes {
		for _, pipeline := range []bool{false, true} {
			name := shape.name
			if pipeline {
				name += "-pipelined"
			}
			t.Run(name, func(t *testing.T) {
				gen := &ShardGen{MasterSeed: 201}
				reference, err := RunSharded(ShardedConfig{
					Config: shardLocalConfig(t), Shards: shape.leaves, Gen: gen,
				})
				if err != nil {
					t.Fatal(err)
				}
				tr, err := agg.NewTree(shape.leaves, shape.fanin)
				if err != nil {
					t.Fatal(err)
				}
				treed, err := RunCluster(ClusterConfig{
					Config:    shardLocalConfig(t),
					Transport: tr,
					Gen:       gen,
					Pipeline:  pipeline,
				})
				if err != nil {
					t.Fatal(err)
				}
				if got, want := treed.TreeLeaves, shape.leaves; got != want {
					t.Fatalf("TreeLeaves = %d, want %d", got, want)
				}
				if treed.TreeHeight < 1 {
					t.Fatalf("TreeHeight = %d on an aggregator run", treed.TreeHeight)
				}
				if got, want := len(treed.Board.Records), len(reference.Board.Records); got != want {
					t.Fatalf("rounds %d vs %d", got, want)
				}
				for i := range reference.Board.Records {
					if reference.Board.Records[i] != treed.Board.Records[i] {
						t.Errorf("round %d diverged:\nflat %+v\ntree %+v",
							i+1, reference.Board.Records[i], treed.Board.Records[i])
					}
				}
				if treed.LostShards != 0 {
					t.Errorf("lost shards on a healthy tree: %d", treed.LostShards)
				}
			})
		}
	}
}

// Sub-shards compose with the tree: a tree over L leaves with C per-worker
// sub-shards is the L·C-cell seed space cut twice — it must reproduce the
// flat (L·C)-shard reference, exactly like a flat fleet with sub-shards.
func TestAggTreeSubShardsEqualFlat(t *testing.T) {
	const leaves, subs = 8, 2
	gen := &ShardGen{MasterSeed: 205}
	reference, err := RunSharded(ShardedConfig{
		Config: shardLocalConfig(t), Shards: leaves * subs, Gen: gen,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := agg.NewTree(leaves, 2)
	if err != nil {
		t.Fatal(err)
	}
	treed, err := RunCluster(ClusterConfig{
		Config:    shardLocalConfig(t),
		Transport: tr,
		Gen:       gen,
		SubShards: subs,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range reference.Board.Records {
		if reference.Board.Records[i] != treed.Board.Records[i] {
			t.Errorf("round %d diverged between flat %d-shard and tree %d×%d run",
				i+1, leaves*subs, leaves, subs)
		}
	}
}

// The row game through the tier: aggregators concatenate per-leaf vector
// deltas and kept rows instead of merging them, so the robust center — and
// with it every record — reproduces the flat reference bit for bit.
func TestAggTreeEqualsFlatRows(t *testing.T) {
	mk := func() RowConfig {
		d := dataset.VehicleN(stats.NewRand(206), 400)
		adv, err := attack.NewPoint("p", 0.99)
		if err != nil {
			t.Fatal(err)
		}
		return RowConfig{
			Rounds: 5, Batch: 120, AttackRatio: 0.2,
			Data: d, Collector: mustStatic(t, 0.9), Adversary: adv,
			PoisonLabel: -1,
		}
	}
	const leaves = 8
	gen := &ShardGen{MasterSeed: 207}
	reference, err := RunShardedRows(RowShardedConfig{
		RowConfig: mk(), Shards: leaves, Gen: gen,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := agg.NewTree(leaves, 2)
	if err != nil {
		t.Fatal(err)
	}
	treed, err := RunClusterRows(RowClusterConfig{
		RowConfig: mk(), Transport: tr, Gen: gen, CollectKept: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range reference.Board.Records {
		if !reference.Board.Records[i].Equal(treed.Board.Records[i]) {
			t.Errorf("round %d diverged:\nflat %+v\ntree %+v",
				i+1, reference.Board.Records[i], treed.Board.Records[i])
		}
	}
	if got, want := treed.Kept.Len(), reference.Kept.Len(); got != want {
		t.Errorf("kept pool %d rows, flat reference %d", got, want)
	}
	if treed.KeptPoison != reference.KeptPoison {
		t.Errorf("kept poison %d, flat reference %d", treed.KeptPoison, reference.KeptPoison)
	}
}

// The one-RTT pipelined row schedule through the tier: combined directives
// carry the speculated round's generator cells, which aggregators split
// positionally exactly like a standalone Generate's, and its center and
// clean scale, which they forward unchanged — so the pipelined tree run
// reproduces the unpipelined LateCenter tree run record for record, kept
// row for kept row, without losing a shard on a healthy tree. The 3-leaf
// fan-in-2 shape puts a one-leaf aggregator at the second top slot, and its
// sub-shards give that aggregator two generator cells to pass through.
func TestAggTreePipelinedRowsEqualsUnpipelined(t *testing.T) {
	mk := func() RowConfig {
		d := dataset.VehicleN(stats.NewRand(209), 400)
		adv, err := attack.NewPoint("p", 0.99)
		if err != nil {
			t.Fatal(err)
		}
		return RowConfig{
			Rounds: 6, Batch: 120, AttackRatio: 0.2,
			Data: d, Collector: mustStatic(t, 0.9), Adversary: adv,
			PoisonLabel: -1,
		}
	}
	for _, tc := range []struct {
		name                string
		leaves, fanin, subs int
	}{
		{"8-leaves-fanin2", 8, 2, 1},
		{"3-leaves-fanin2-one-leaf-aggregator-subs2", 3, 2, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			gen := &ShardGen{MasterSeed: 210}
			run := func(pipeline bool) *RowResult {
				tr, err := agg.NewTree(tc.leaves, tc.fanin)
				if err != nil {
					t.Fatal(err)
				}
				res, err := RunClusterRows(RowClusterConfig{
					RowConfig: mk(), Transport: tr, Gen: gen, SubShards: tc.subs,
					LateCenter: true, Pipeline: pipeline, CollectKept: true,
				})
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			plain := run(false)
			piped := run(true)
			for name, res := range map[string]*RowResult{"unpipelined": plain, "pipelined": piped} {
				if res.LostShards != 0 {
					t.Errorf("%s run lost shards on a healthy tree: %+v", name, res.Losses)
				}
			}
			assertSameRowResult(t, "tree pipelined vs unpipelined late-center", plain, piped)
			if len(plain.Kept.X) == 0 {
				t.Fatal("late-center tree run kept no rows")
			}
		})
	}
}

// A round's clean scale is the coordinator's dataset measured from the
// round's center, so it cannot depend on the fleet: rounds 1 and 2 of a
// LateCenter game both run against the X0 seed center D_0, and every
// generate directive of those rounds — on a 2-leaf and a 5-leaf flat fleet
// and on a 4-leaf fan-in-2 tree — carries the same scale, byte for byte.
// ε = 0.05 compresses the 300-row scale, so a scale merged from per-leaf
// pieces would show.
func TestCleanScaleIndependentOfFleet(t *testing.T) {
	cfg := rowsPipelineConfig(t, 92)
	cfg.SummaryEpsilon = 0.05
	fleets := []struct {
		name string
		tr   func() cluster.Transport
	}{
		{"flat-2", func() cluster.Transport { return cluster.NewLoopback(2) }},
		{"flat-5", func() cluster.Transport { return cluster.NewLoopback(5) }},
		{"tree-4-fanin2", func() cluster.Transport {
			tr, err := agg.NewTree(4, 2)
			if err != nil {
				t.Fatal(err)
			}
			return tr
		}},
	}
	var want map[int][]byte // round → encoded scale
	for _, fl := range fleets {
		rec := newRecordingTransport(fl.tr())
		if _, err := RunClusterRows(RowClusterConfig{
			RowConfig: cfg, Transport: rec,
			Gen: &ShardGen{MasterSeed: 93}, LateCenter: true,
		}); err != nil {
			t.Fatal(err)
		}
		got := map[int][]byte{}
		for _, w := range slices.Sorted(maps.Keys(rec.reqs)) {
			for _, req := range rec.reqs[w] {
				d, err := wire.DecodeDirective(req)
				if err != nil {
					t.Fatal(err)
				}
				if d.Op != wire.OpGenerate || d.Round > 2 {
					continue
				}
				scale := wire.EncodeSummary(nil, d.Gen.Scale)
				if prev, ok := got[d.Round]; ok && !bytes.Equal(prev, scale) {
					t.Fatalf("%s: round %d slots carry different scales", fl.name, d.Round)
				}
				got[d.Round] = scale
			}
		}
		if len(got) != 2 {
			t.Fatalf("%s: scales recorded for rounds %v, want 1 and 2", fl.name, slices.Sorted(maps.Keys(got)))
		}
		if !bytes.Equal(got[1], got[2]) {
			t.Errorf("%s: rounds 1 and 2 share the center D_0 but carry different scales", fl.name)
		}
		if want == nil {
			want = got
			continue
		}
		for _, r := range slices.Sorted(maps.Keys(want)) {
			if !bytes.Equal(got[r], want[r]) {
				t.Errorf("%s: round %d scale differs from %s's (%d B vs %d B)", fl.name, r, fleets[0].name, len(got[r]), len(want[r]))
			}
		}
	}
}

// The LDP game through the tier: the board is grouping-independent and must
// reproduce exactly; the run-end mean estimators fold worker float sums in
// tree order, so they agree with the flat fold to float round-off only.
func TestAggTreeEqualsFlatLDP(t *testing.T) {
	const leaves = 8
	gen := &ShardGen{MasterSeed: 208}
	reference, err := RunShardedLDP(LDPShardedConfig{
		LDPConfig: shardLocalLDPConfig(t), Shards: leaves, Gen: gen,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := agg.NewTree(leaves, 4)
	if err != nil {
		t.Fatal(err)
	}
	treed, err := RunClusterLDP(LDPClusterConfig{
		LDPConfig: shardLocalLDPConfig(t), Transport: tr, Gen: gen,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range reference.Board.Records {
		if !reference.Board.Records[i].Equal(treed.Board.Records[i]) {
			t.Errorf("round %d diverged:\nflat %+v\ntree %+v",
				i+1, reference.Board.Records[i], treed.Board.Records[i])
		}
	}
	if d := math.Abs(treed.MeanEstimate - reference.MeanEstimate); d > 1e-9 {
		t.Errorf("mean estimate drifted %v between tree and flat fold", d)
	}
	if d := math.Abs(treed.TrueMean - reference.TrueMean); d > 1e-9 {
		t.Errorf("true mean drifted %v between tree and flat fold", d)
	}
}

// A multi-process-shaped tree: leaf workers and aggregator nodes all served
// over real TCP sockets (`trimlab worker` + `trimlab aggregator`), the
// coordinator dialing only the two aggregators. Same board as the flat
// loopback reference — the transport cannot influence the merge.
func TestAggTreeOverTCP(t *testing.T) {
	const leaves, fanin = 8, 4
	serve := func(h cluster.Handler) string {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			if err := cluster.Serve(ln, h); err != nil {
				t.Logf("serve: %v", err)
			}
		}()
		t.Cleanup(func() { ln.Close() })
		return ln.Addr().String()
	}
	leafAddrs := make([]string, leaves)
	for i := range leafAddrs {
		leafAddrs[i] = serve(cluster.NewWorker(i))
	}
	var topAddrs []string
	for lo := 0; lo < leaves; lo += fanin {
		children, err := agg.DialChildren(leafAddrs[lo:lo+fanin], 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		node, err := agg.NewNode(lo/fanin, children...)
		if err != nil {
			t.Fatal(err)
		}
		topAddrs = append(topAddrs, serve(node))
	}
	tr, err := cluster.Dial(topAddrs, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	gen := &ShardGen{MasterSeed: 209}
	reference, err := RunSharded(ShardedConfig{
		Config: shardLocalConfig(t), Shards: leaves, Gen: gen,
	})
	if err != nil {
		t.Fatal(err)
	}
	treed, err := RunCluster(ClusterConfig{
		Config: shardLocalConfig(t), Transport: tr, Gen: gen,
	})
	if err != nil {
		t.Fatal(err)
	}
	if treed.TreeLeaves != leaves || treed.TreeHeight != 1 {
		t.Fatalf("tree shape %d leaves height %d, want %d leaves height 1",
			treed.TreeLeaves, treed.TreeHeight, leaves)
	}
	for i := range reference.Board.Records {
		if reference.Board.Records[i] != treed.Board.Records[i] {
			t.Errorf("round %d diverged between flat reference and TCP tree", i+1)
		}
	}
}

// Observability through the tier is measurement only: the instrumented tree
// run reproduces the bare one record for record, and the per-level
// aggregator merge histograms actually fill.
func TestObsOnOffAggTreeRecordIdentical(t *testing.T) {
	gen := &ShardGen{MasterSeed: 210}
	run := func(log *obs.Logger, met *obs.Registry) *Result {
		tr, err := agg.NewTree(8, 2)
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunCluster(ClusterConfig{
			Config:    shardLocalConfig(t),
			Transport: tr,
			Gen:       gen,
			Log:       log,
			Metrics:   met,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	off := run(nil, nil)
	log, met, _ := fullObs()
	on := run(log, met)
	for i := range off.Board.Records {
		if !off.Board.Records[i].Equal(on.Board.Records[i]) {
			t.Errorf("round %d diverged under observability", i+1)
		}
	}
	if on.EgressBytes != off.EgressBytes {
		t.Errorf("egress changed under observability: %d vs %d", on.EgressBytes, off.EgressBytes)
	}
	// 8 leaves at fan-in 2 is a height-2 tree: both levels must report.
	for lvl := 1; lvl <= 2; lvl++ {
		if met.Histogram("trimlab_agg_merge_seconds", obs.TimeBuckets, "level", strconv.Itoa(lvl)).Count() == 0 {
			t.Errorf("no level-%d aggregator merge observations", lvl)
		}
	}
	if got := met.Gauge("trimlab_tree_leaves").Value(); got != 8 {
		t.Errorf("trimlab_tree_leaves = %v, want 8", got)
	}
	if got := met.Gauge("trimlab_tree_height").Value(); got != 2 {
		t.Errorf("trimlab_tree_height = %v, want 2", got)
	}
}

// An aggregator slot killed mid-game takes its whole subtree down — one
// ShardLoss per leaf shard it held — and a respawned aggregator re-admits
// through the standard fleet handshake, with the surviving leaf workers
// keeping their state behind it. Post-recovery records match the flat
// uninterrupted reference again.
func TestAggTreeAggregatorKillAndRespawn(t *testing.T) {
	const leaves, fanin = 8, 2 // 2 top slots, 4 leaves each
	const failAfter, respawnAfter = 3, 5
	gen := &ShardGen{MasterSeed: 211}
	reference, err := RunSharded(ShardedConfig{
		Config: shardLocalConfig(t), Shards: leaves, Gen: gen,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := agg.NewTree(leaves, fanin)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Workers() != 2 {
		t.Fatalf("tree has %d top slots, want 2", tr.Workers())
	}
	cfg := ClusterConfig{
		Config:    shardLocalConfig(t),
		Transport: tr,
		Gen:       gen,
		Fleet:     &fleet.Config{Rejoin: true},
	}
	cfg.OnRound = rejoinPattern(failAfter, respawnAfter,
		func() { tr.Fail(1) }, func() {
			if err := tr.Respawn(1); err != nil {
				t.Errorf("respawn: %v", err)
			}
		})
	res, err := RunCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The dead aggregator held leaves 4..7: four shard losses in one round.
	perLeaf := leaves / 2
	if res.LostShards != perLeaf || len(res.Losses) != perLeaf {
		t.Fatalf("LostShards %d, Losses %+v — want %d per-leaf losses", res.LostShards, res.Losses, perLeaf)
	}
	for j, loss := range res.Losses {
		lo, hi := shardBounds(cfg.Batch, leaves, perLeaf+j)
		if loss.Round != failAfter+1 || loss.Worker != 1 || loss.Lo != lo || loss.Hi != hi {
			t.Errorf("loss %d = %+v, want round %d worker 1 [%d, %d)", j, loss, failAfter+1, lo, hi)
		}
	}
	if res.WholeSince != respawnAfter+1 {
		t.Fatalf("WholeSince = %d, want %d", res.WholeSince, respawnAfter+1)
	}
	for i := 0; i < failAfter; i++ {
		if !reference.Board.Records[i].Equal(res.Board.Records[i]) {
			t.Errorf("pre-loss round %d diverged", i+1)
		}
	}
	short := res.Board.Records[failAfter]
	if short.HonestKept+short.HonestTrimmed >= cfg.Batch {
		t.Errorf("failure round tally %d not short of %d", short.HonestKept+short.HonestTrimmed, cfg.Batch)
	}
	for i := res.WholeSince - 1; i < cfg.Rounds; i++ {
		if !reference.Board.Records[i].Equal(res.Board.Records[i]) {
			t.Errorf("post-recovery round %d diverged:\nreference %+v\ncluster   %+v",
				i+1, reference.Board.Records[i], res.Board.Records[i])
		}
	}
	if res.TreeLeaves != leaves {
		t.Errorf("TreeLeaves = %d after recovery, want %d", res.TreeLeaves, leaves)
	}
}

// A mid-tree leaf loss: the parent aggregator stays up, reports the dead
// child's leaf offsets as lost, and the game continues on the remaining
// leaves — the coordinator records the loss per shard without ever dropping
// the aggregator slot.
func TestAggTreeMidSubtreeLeafLoss(t *testing.T) {
	const leaves, fanin = 8, 2
	gen := &ShardGen{MasterSeed: 212}
	tr, err := agg.NewTree(leaves, fanin)
	if err != nil {
		t.Fatal(err)
	}
	cfg := ClusterConfig{
		Config:    shardLocalConfig(t),
		Transport: tr,
		Gen:       gen,
	}
	const failAfter = 3
	const deadLeaf = 5
	rounds := 0
	cfg.OnRound = func(RoundRecord) {
		rounds++
		if rounds == failAfter {
			tr.FailLeaf(deadLeaf)
		}
	}
	res, err := RunCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.LostShards != 1 || len(res.Losses) != 1 {
		t.Fatalf("LostShards %d, Losses %+v", res.LostShards, res.Losses)
	}
	loss := res.Losses[0]
	lo, hi := shardBounds(cfg.Batch, leaves, deadLeaf)
	if loss.Round != failAfter+1 || loss.Lo != lo || loss.Hi != hi {
		t.Fatalf("loss = %+v, want round %d range [%d, %d)", loss, failAfter+1, lo, hi)
	}
	if len(res.FleetEvents) != 0 {
		t.Errorf("membership events on a mid-tree loss: %+v (slot must survive)", res.FleetEvents)
	}
	if res.TreeLeaves != leaves-1 {
		t.Errorf("TreeLeaves = %d, want %d after one leaf loss", res.TreeLeaves, leaves-1)
	}
	// The loss round runs short; later rounds repartition over the
	// surviving leaves and cover the full batch again.
	short := res.Board.Records[failAfter]
	if short.HonestKept+short.HonestTrimmed >= cfg.Batch {
		t.Errorf("loss round tally %d not short of %d", short.HonestKept+short.HonestTrimmed, cfg.Batch)
	}
	last := res.Board.Records[cfg.Rounds-1]
	if got := last.HonestKept + last.HonestTrimmed; got != cfg.Batch {
		t.Errorf("post-loss round tally %d, want full batch %d", got, cfg.Batch)
	}
	// From the first whole round after the loss, the run matches the flat
	// (leaves−1)-shard game: the survivors repartition deterministically.
	reference, err := RunSharded(ShardedConfig{
		Config: shardLocalConfig(t), Shards: leaves - 1, Gen: gen,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := failAfter + 1; i < cfg.Rounds; i++ {
		if !reference.Board.Records[i].Equal(res.Board.Records[i]) {
			t.Errorf("post-loss round %d diverged from the %d-shard reference", i+1, leaves-1)
		}
	}
}

// The ε/h budget split (DESIGN.md §13): leaves run at ε/(h+1) and every
// aggregator recompresses on a ceil((h+1)/ε) budget, so the end-to-end rank
// error stays within the flat budget ε — the per-round kept fraction lands
// within ε (plus sampling slack) of the threshold percentile.
func TestAggTreeCompressionDriftWithinBudget(t *testing.T) {
	const leaves, fanin = 16, 4 // height 2
	const eps = 0.05
	gen := &ShardGen{MasterSeed: 213}
	tr, err := agg.NewTree(leaves, fanin)
	if err != nil {
		t.Fatal(err)
	}
	tr.SetCompress(agg.CompressBudget(eps, 2))
	cfg := shardLocalConfig(t)
	cfg.SummaryEpsilon = agg.LevelEpsilon(eps, 2)
	res, err := RunCluster(ClusterConfig{
		Config:    cfg,
		Transport: tr,
		Gen:       gen,
	})
	if err != nil {
		t.Fatal(err)
	}
	const pct = 0.9 // shardLocalConfig's static collector
	for _, rec := range res.Board.Records {
		total := rec.HonestKept + rec.HonestTrimmed + rec.PoisonKept + rec.PoisonTrimmed
		kept := rec.HonestKept + rec.PoisonKept
		frac := float64(kept) / float64(total)
		if d := math.Abs(frac - pct); d > eps+0.02 {
			t.Errorf("round %d: kept fraction %.4f is %.4f from pct %.2f (> ε %.2f + slack)",
				rec.Round, frac, d, pct, eps)
		}
	}
	if res.LostShards != 0 {
		t.Errorf("lost shards under compression: %d", res.LostShards)
	}
}

// growthLoopback is a full-width loopback whose last add slots accept a
// mid-game join — an elastic game's growth slots, held out until their
// round.
func growthLoopback(base, add int) *cluster.Loopback {
	return cluster.NewLoopbackPrepared(base+add, func(w *cluster.Worker) {
		if w.ID() >= base {
			w.AllowRejoin()
		}
	})
}

// growthSlots appends join-enabled plain worker slots after a transport's
// own: the growth slots of an elastic game played over an aggregator tree.
type growthSlots struct {
	cluster.Transport
	tail *cluster.Loopback
}

func withGrowthSlots(tr cluster.Transport, add int) *growthSlots {
	return &growthSlots{tr, cluster.NewLoopbackPrepared(add, (*cluster.Worker).AllowRejoin)}
}

func (g *growthSlots) Workers() int { return g.Transport.Workers() + g.tail.Workers() }

func (g *growthSlots) Call(w int, req []byte) ([]byte, error) {
	if n := g.Transport.Workers(); w >= n {
		return g.tail.Call(w-n, req)
	}
	return g.Transport.Call(w, req)
}

// Elastic growth before round 1 is the widest run: the grown game must
// reproduce the full (W+k)-worker flat reference — growth only opens new
// seed streams, existing slots keep theirs.
func TestElasticGrowAtRoundOneEqualsWiderFlat(t *testing.T) {
	const base, add = 4, 4
	gen := &ShardGen{MasterSeed: 214}
	reference, err := RunSharded(ShardedConfig{
		Config: shardLocalConfig(t), Shards: base + add, Gen: gen,
	})
	if err != nil {
		t.Fatal(err)
	}
	grown, err := RunCluster(ClusterConfig{
		Config:    shardLocalConfig(t),
		Transport: growthLoopback(base, add),
		Gen:       gen,
		Elastic:   []GrowStep{{Round: 1, Add: add}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if grown.TreeLeaves != base+add {
		t.Fatalf("TreeLeaves = %d, want %d", grown.TreeLeaves, base+add)
	}
	for i := range reference.Board.Records {
		if !reference.Board.Records[i].Equal(grown.Board.Records[i]) {
			t.Errorf("round %d diverged:\nflat %d-worker %+v\ngrown %+v",
				i+1, base+add, reference.Board.Records[i], grown.Board.Records[i])
		}
	}
}

// A mid-game grow matches the wider flat reference from the grow round on
// (board-oblivious strategies: each round is a pure function of the live
// leaf set), and the pre-grow rounds match the narrow reference.
func TestElasticMidGameGrowMatchesFromGrowRound(t *testing.T) {
	const base, add, growAt = 4, 2, 6
	gen := &ShardGen{MasterSeed: 215}
	narrow, err := RunSharded(ShardedConfig{
		Config: shardLocalConfig(t), Shards: base, Gen: gen,
	})
	if err != nil {
		t.Fatal(err)
	}
	wide, err := RunSharded(ShardedConfig{
		Config: shardLocalConfig(t), Shards: base + add, Gen: gen,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, pipeline := range []bool{false, true} {
		grown, err := RunCluster(ClusterConfig{
			Config:    shardLocalConfig(t),
			Transport: growthLoopback(base, add),
			Gen:       gen,
			Pipeline:  pipeline,
			Elastic:   []GrowStep{{Round: growAt, Add: add}},
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < growAt-1; i++ {
			if !narrow.Board.Records[i].Equal(grown.Board.Records[i]) {
				t.Errorf("pipeline=%v: pre-grow round %d diverged from the %d-worker reference",
					pipeline, i+1, base)
			}
		}
		for i := growAt - 1; i < len(grown.Board.Records); i++ {
			if !wide.Board.Records[i].Equal(grown.Board.Records[i]) {
				t.Errorf("pipeline=%v: post-grow round %d diverged from the %d-worker reference:\nwide  %+v\ngrown %+v",
					pipeline, i+1, base+add, wide.Board.Records[i], grown.Board.Records[i])
			}
		}
	}
}

// Elastic growth through an aggregator tree: the growth slots are direct
// coordinator children next to the subtrees, and from the grow round the
// run matches the flat (leaves+k)-shard reference.
func TestElasticGrowThroughAggTree(t *testing.T) {
	const leaves, fanin, add, growAt = 8, 2, 2, 4
	gen := &ShardGen{MasterSeed: 216}
	wide, err := RunSharded(ShardedConfig{
		Config: shardLocalConfig(t), Shards: leaves + add, Gen: gen,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := agg.NewTree(leaves, fanin)
	if err != nil {
		t.Fatal(err)
	}
	grown, err := RunCluster(ClusterConfig{
		Config:    shardLocalConfig(t),
		Transport: withGrowthSlots(tr, add),
		Gen:       gen,
		Elastic:   []GrowStep{{Round: growAt, Add: add}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if grown.TreeLeaves != leaves+add {
		t.Fatalf("TreeLeaves = %d, want %d", grown.TreeLeaves, leaves+add)
	}
	for i := growAt - 1; i < len(grown.Board.Records); i++ {
		if !wide.Board.Records[i].Equal(grown.Board.Records[i]) {
			t.Errorf("post-grow round %d diverged from the flat %d-shard reference",
				i+1, leaves+add)
		}
	}
}

// Growth over real TCP sockets: the coordinator dials every slot up front,
// holds the growth slot out of the live set until its round, and admits it
// through the same handshake and join guard as a re-joining worker — so a
// TCP fleet grows exactly like a loopback one, pipelined too.
func TestElasticGrowOverTCP(t *testing.T) {
	const base, growAt = 2, 4
	gen := &ShardGen{MasterSeed: 217}
	narrow, err := RunSharded(ShardedConfig{Config: shardLocalConfig(t), Shards: base, Gen: gen})
	if err != nil {
		t.Fatal(err)
	}
	wide, err := RunSharded(ShardedConfig{Config: shardLocalConfig(t), Shards: base + 1, Gen: gen})
	if err != nil {
		t.Fatal(err)
	}
	addrs := make([]string, base+1)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		w := cluster.NewWorker(i)
		if i == base {
			w.AllowRejoin() // the growth slot: `trimlab worker -rejoin`
		}
		go func() {
			if err := cluster.Serve(ln, w); err != nil {
				t.Errorf("worker serve: %v", err)
			}
		}()
	}
	tr, err := cluster.Dial(addrs, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	grown, err := RunCluster(ClusterConfig{
		Config:    shardLocalConfig(t),
		Transport: tr,
		Gen:       gen,
		Pipeline:  true,
		Elastic:   []GrowStep{{Round: growAt, Add: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, rec := range grown.Board.Records {
		want := narrow.Board.Records[i]
		if i >= growAt-1 {
			want = wide.Board.Records[i]
		}
		if !want.Equal(rec) {
			t.Errorf("round %d diverged from the reference:\nwant  %+v\ngrown %+v", i+1, want, rec)
		}
	}
	want := []fleet.Event{{Kind: fleet.EventAdmit, Epoch: 1, Round: growAt, Worker: base}}
	if !slices.Equal(grown.FleetEvents, want) {
		t.Errorf("FleetEvents = %+v, want %+v", grown.FleetEvents, want)
	}
	if grown.WholeSince != growAt || grown.LostShards != 0 {
		t.Errorf("WholeSince %d, LostShards %d; want %d and 0", grown.WholeSince, grown.LostShards, growAt)
	}
}

// A growth slot that refuses a mid-game join (launched without re-join) is
// refused at its round like a wrongly pointed replacement: it is charged
// one "grow" loss, never enters the membership, and the game plays on at
// the narrow width — record for record the narrow reference.
func TestElasticRefusedGrowthSlotStaysOut(t *testing.T) {
	const base, growAt = 3, 5
	gen := &ShardGen{MasterSeed: 218}
	narrow, err := RunSharded(ShardedConfig{Config: shardLocalConfig(t), Shards: base, Gen: gen})
	if err != nil {
		t.Fatal(err)
	}
	for _, pipeline := range []bool{false, true} {
		res, err := RunCluster(ClusterConfig{
			Config:    shardLocalConfig(t),
			Transport: cluster.NewLoopback(base + 1),
			Gen:       gen,
			Pipeline:  pipeline,
			Elastic:   []GrowStep{{Round: growAt, Add: 1}},
		})
		if err != nil {
			t.Fatal(err)
		}
		want := []ShardLoss{{Round: growAt, Phase: "grow", Worker: base}}
		if !slices.Equal(res.Losses, want) || res.LostShards != 1 {
			t.Errorf("pipeline=%v: losses %+v (%d), want %+v", pipeline, res.Losses, res.LostShards, want)
		}
		if len(res.FleetEvents) != 0 || res.WholeSince != 0 || res.TreeLeaves != base {
			t.Errorf("pipeline=%v: events %+v, WholeSince %d, TreeLeaves %d; want none, 0, %d",
				pipeline, res.FleetEvents, res.WholeSince, res.TreeLeaves, base)
		}
		for i := range narrow.Board.Records {
			if !narrow.Board.Records[i].Equal(res.Board.Records[i]) {
				t.Errorf("pipeline=%v: round %d diverged from the %d-worker reference", pipeline, i+1, base)
			}
		}
	}
}

func TestElasticValidation(t *testing.T) {
	mk := func() ClusterConfig {
		return ClusterConfig{
			Config:    shardLocalConfig(t),
			Transport: growthLoopback(1, 1),
			Gen:       &ShardGen{MasterSeed: 1},
			Elastic:   []GrowStep{{Round: 2, Add: 1}},
		}
	}
	bad := []func(*ClusterConfig){
		func(c *ClusterConfig) { c.Gen = nil },
		// Holding out every slot leaves nobody to play round 1.
		func(c *ClusterConfig) { c.Elastic = []GrowStep{{Round: 2, Add: 1}, {Round: 3, Add: 1}} },
		func(c *ClusterConfig) { c.Fleet = &fleet.Config{Rejoin: true} },
		func(c *ClusterConfig) { c.Elastic = []GrowStep{{Round: 0, Add: 1}} },
		func(c *ClusterConfig) { c.Elastic = []GrowStep{{Round: 99, Add: 1}} },
		func(c *ClusterConfig) { c.Elastic = []GrowStep{{Round: 3, Add: 1}, {Round: 3, Add: 1}} },
		func(c *ClusterConfig) { c.Elastic = []GrowStep{{Round: 2, Add: 0}} },
	}
	for i, mutate := range bad {
		cfg := mk()
		mutate(&cfg)
		if _, err := RunCluster(cfg); err == nil {
			t.Errorf("case %d should fail validation", i)
		}
	}
	if _, err := RunCluster(mk()); err != nil {
		t.Fatalf("valid elastic config rejected: %v", err)
	}
}
