package collect

import (
	"bytes"
	"encoding/binary"
	"maps"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/attack"
	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/fleet"
	"repro/internal/ldp"
	"repro/internal/stats"
	"repro/internal/trim"
	"repro/internal/wire"
)

// shardLocalConfig is baseConfig stripped of everything the shard-local
// data plane does not need: the run must be a pure function of
// (MasterSeed, shard count), so Honest and Rng stay nil on purpose.
func shardLocalConfig(t *testing.T) Config {
	t.Helper()
	ref := reference(50, 5000)
	static, err := trim.NewStatic("Static0.9", 0.9)
	if err != nil {
		t.Fatal(err)
	}
	adv, err := attack.NewRange("Baseline0.9", 0.9, 1)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Rounds:      10,
		Batch:       500,
		AttackRatio: 0.2,
		Reference:   ref,
		Collector:   static,
		Adversary:   adv,
		TrimOnBatch: true,
	}
}

// The acceptance bar of the shard-local data plane: a loopback cluster
// generating its own arrivals must reproduce the single-process sharded
// reference run of the same game record for record, at 2 and 4 workers.
func TestShardLocalClusterEqualsShardedReference(t *testing.T) {
	for _, workers := range []int{2, 4} {
		gen := &ShardGen{MasterSeed: 77}
		reference, err := RunSharded(ShardedConfig{
			Config: shardLocalConfig(t), Shards: workers, Gen: gen,
		})
		if err != nil {
			t.Fatal(err)
		}
		clustered, err := RunCluster(ClusterConfig{
			Config:    shardLocalConfig(t),
			Transport: cluster.NewLoopback(workers),
			Gen:       gen,
		})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := len(clustered.Board.Records), len(reference.Board.Records); got != want {
			t.Fatalf("workers=%d: rounds %d vs %d", workers, got, want)
		}
		for i := range reference.Board.Records {
			if reference.Board.Records[i] != clustered.Board.Records[i] {
				t.Errorf("workers=%d round %d diverged:\nreference %+v\ncluster   %+v",
					workers, i+1, reference.Board.Records[i], clustered.Board.Records[i])
			}
		}
		if clustered.LostShards != 0 {
			t.Errorf("workers=%d: lost shards on a healthy cluster", workers)
		}
	}
}

// Poison-free rounds record MeanInjectionPct = NaN, so record-for-record
// verifications must go through RoundRecord.Equal — struct == would call
// identical boards diverged (NaN != NaN).
func TestShardLocalRecordEqualityWithoutPoison(t *testing.T) {
	run := func(engine func(Config) (*Result, error)) *Result {
		cfg := shardLocalConfig(t)
		cfg.AttackRatio = 0
		res, err := engine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	gen := &ShardGen{MasterSeed: 78}
	reference := run(func(c Config) (*Result, error) {
		return RunSharded(ShardedConfig{Config: c, Shards: 2, Gen: gen})
	})
	clustered := run(func(c Config) (*Result, error) {
		return RunCluster(ClusterConfig{Config: c, Transport: cluster.NewLoopback(2), Gen: gen})
	})
	for i := range reference.Board.Records {
		if !math.IsNaN(reference.Board.Records[i].MeanInjectionPct) {
			t.Fatalf("round %d: poison-free round recorded injection pct", i+1)
		}
		if !reference.Board.Records[i].Equal(clustered.Board.Records[i]) {
			t.Errorf("round %d: identical poison-free rounds not Equal", i+1)
		}
		if reference.Board.Records[i] == clustered.Board.Records[i] {
			t.Errorf("round %d: struct == unexpectedly true on NaN fields (test premise broken)", i+1)
		}
	}
	a := RoundRecord{Round: 1, MeanInjectionPct: 0.5}
	b := RoundRecord{Round: 1, MeanInjectionPct: math.NaN()}
	if a.Equal(b) {
		t.Error("NaN treated equal to a real injection pct")
	}
}

// A shard-local run is a pure function of (master seed, shard count):
// identical inputs reproduce the board, a different master seed moves it.
func TestShardLocalPureFunctionOfSeed(t *testing.T) {
	run := func(seed int64) *Result {
		res, err := RunSharded(ShardedConfig{
			Config: shardLocalConfig(t), Shards: 4, Gen: &ShardGen{MasterSeed: seed},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b, c := run(5), run(5), run(6)
	diverged := false
	for i := range a.Board.Records {
		if a.Board.Records[i] != b.Board.Records[i] {
			t.Fatalf("round %d diverged between identical master seeds", i+1)
		}
		if a.Board.Records[i] != c.Board.Records[i] {
			diverged = true
		}
	}
	if !diverged {
		t.Fatal("different master seeds reproduced the identical board")
	}
}

// Shard-local generation must agree with the centrally generated game on
// the observable outcomes (different RNG streams, same distributions).
// baseConfig and shardLocalConfig share the reference pool and collector;
// the adversary is matched here.
func TestShardLocalAgreesWithCentralStatistically(t *testing.T) {
	centralCfg := baseConfig(t, 50) // P99 point adversary
	centralCfg.Reference = reference(50, 5000)
	centralCfg.TrimOnBatch = true
	honest, err := PoolSampler(centralCfg.Reference)
	if err != nil {
		t.Fatal(err)
	}
	centralCfg.Honest = honest
	central, err := Run(centralCfg)
	if err != nil {
		t.Fatal(err)
	}

	localCfg := shardLocalConfig(t)
	adv, err := attack.NewPoint("P99", 0.99)
	if err != nil {
		t.Fatal(err)
	}
	localCfg.Adversary = adv
	local, err := RunSharded(ShardedConfig{Config: localCfg, Shards: 4, Gen: &ShardGen{MasterSeed: 52}})
	if err != nil {
		t.Fatal(err)
	}
	if a, b := central.Board.PoisonRetention(), local.Board.PoisonRetention(); math.Abs(a-b) > 0.05 {
		t.Errorf("retention %v (central) vs %v (shard-local)", a, b)
	}
	if a, b := central.Board.HonestLoss(), local.Board.HonestLoss(); math.Abs(a-b) > 0.05 {
		t.Errorf("honest loss %v (central) vs %v (shard-local)", a, b)
	}
}

// opaque wraps a strategy, hiding its InjectionSpec — the shape of a
// third-party adversary the shard-local engines must reject.
type opaque struct{ attack.Strategy }

func (o opaque) Injection(r int, prev attack.Observation) func(*rand.Rand) float64 {
	return o.Strategy.Injection(r, prev)
}

func TestShardLocalValidation(t *testing.T) {
	mk := func() ShardedConfig {
		return ShardedConfig{Config: shardLocalConfig(t), Shards: 2, Gen: &ShardGen{MasterSeed: 1}}
	}
	bad := []func(*ShardedConfig){
		func(c *ShardedConfig) { c.Quality = ExcessMassQuality },
		func(c *ShardedConfig) { c.Adversary = opaque{c.Adversary} },
		func(c *ShardedConfig) { c.Rounds = 0 },
	}
	for i, mutate := range bad {
		cfg := mk()
		mutate(&cfg)
		if _, err := RunSharded(cfg); err == nil {
			t.Errorf("case %d should fail validation", i)
		}
	}
	// Nil Honest and Rng are fine in shard-local mode — and required to be:
	// the run may not depend on them.
	if _, err := RunSharded(mk()); err != nil {
		t.Fatalf("shard-local run with nil Honest/Rng: %v", err)
	}
	// Cluster validation mirrors it.
	ccfg := ClusterConfig{Config: shardLocalConfig(t), Transport: cluster.NewLoopback(2), Gen: &ShardGen{MasterSeed: 1}}
	ccfg.Quality = ExcessMassQuality
	if _, err := RunCluster(ccfg); err == nil {
		t.Error("cluster shard-local slice-based Quality should fail validation")
	}
}

// Per-round coordinator egress is O(workers) — seed directives, never an
// arrival — the point of the shard-local data plane.
func TestShardLocalEgressOWorkers(t *testing.T) {
	const workers = 4
	local, err := RunCluster(ClusterConfig{
		Config:    shardLocalConfig(t),
		Transport: cluster.NewLoopback(workers),
		Gen:       &ShardGen{MasterSeed: 54},
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := shardLocalConfig(t)
	rounds := int64(cfg.Rounds)
	localPerRound := (local.EgressBytes - local.EgressConfigBytes) / rounds
	// Shard-local rounds ship two fixed-size directives per worker — far
	// below one raw slice of the batch (≥ 8 bytes per arrival).
	if localPerRound >= int64(8*cfg.Batch) {
		t.Errorf("shard-local egress %d B/round is O(batch)", localPerRound)
	}
	if maximum := int64(workers * 1024); localPerRound > maximum {
		t.Errorf("shard-local egress %d B/round, expected ≤ %d (O(workers))", localPerRound, maximum)
	}
	if local.EgressConfigBytes <= 0 {
		t.Error("shard-local configure shipped no pool/reference")
	}
}

// recordingTransport records the requests each slot is sent, in order, and
// the reply to each (nil for a failed call). A game without fleet
// supervision calls each slot one call at a time, so reps[w][k] answers
// reqs[w][k].
type recordingTransport struct {
	cluster.Transport
	mu   sync.Mutex
	reqs map[int][][]byte
	reps map[int][][]byte
}

func newRecordingTransport(inner cluster.Transport) *recordingTransport {
	return &recordingTransport{Transport: inner, reqs: map[int][][]byte{}, reps: map[int][][]byte{}}
}

func (r *recordingTransport) Call(w int, req []byte) ([]byte, error) {
	r.mu.Lock()
	r.reqs[w] = append(r.reqs[w], req)
	r.mu.Unlock()
	out, err := r.Transport.Call(w, req)
	r.mu.Lock()
	r.reps[w] = append(r.reps[w], out)
	r.mu.Unlock()
	return out, err
}

// checkTraffic asserts that a game's egress and ingress accounts are the
// bytes its transport carried: every request and every reply but the
// final stop broadcast's, which both accounts leave out.
func checkTraffic(t *testing.T, rec *recordingTransport, cs ClusterStats) {
	t.Helper()
	var egress, ingress int64
	for _, w := range slices.Sorted(maps.Keys(rec.reqs)) {
		reqs := rec.reqs[w]
		if len(rec.reps[w]) != len(reqs) {
			t.Fatalf("slot %d: %d replies to %d requests", w, len(rec.reps[w]), len(reqs))
		}
		for k, req := range reqs {
			d, err := wire.DecodeDirective(req)
			if err != nil {
				t.Fatalf("slot %d request %d: %v", w, k, err)
			}
			if d.Op == wire.OpStop {
				continue
			}
			egress += int64(len(req))
			ingress += int64(len(rec.reps[w][k]))
		}
	}
	if ingress == 0 {
		t.Fatal("the transport carried no reply bytes")
	}
	if cs.IngressBytes != ingress {
		t.Errorf("IngressBytes = %d, want the %d reply bytes the transport returned", cs.IngressBytes, ingress)
	}
	if cs.EgressBytes != egress {
		t.Errorf("EgressBytes = %d, want the %d request bytes the transport carried", cs.EgressBytes, egress)
	}
}

// The coordinator counts what its slots answer with: IngressBytes is the
// sum of the reply lengths — round reports on every schedule, and the row
// game's kept-row pages fetched one call at a time at game end.
func TestIngressCountsReplies(t *testing.T) {
	const workers = 3
	for _, pipeline := range []bool{false, true} {
		rec := newRecordingTransport(cluster.NewLoopback(workers))
		res, err := RunCluster(ClusterConfig{
			Config: shardLocalConfig(t), Transport: rec, Gen: &ShardGen{MasterSeed: 94}, Pipeline: pipeline,
		})
		if err != nil {
			t.Fatal(err)
		}
		checkTraffic(t, rec, res.ClusterStats)
	}
	rec := newRecordingTransport(cluster.NewLoopback(workers))
	res, err := RunClusterRows(RowClusterConfig{
		RowConfig: rowsPipelineConfig(t, 95), Transport: rec, Gen: &ShardGen{MasterSeed: 96}, CollectKept: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Kept.X) == 0 {
		t.Fatal("row game paged out no kept rows")
	}
	checkTraffic(t, rec, res.ClusterStats)
}

// checkConfigureBroadcast asserts that the game sent configures requests
// — the first of each of its slots, and a re-admitted slot's re-ship — all
// carrying the very same bytes, one encoding of the game's configure
// message; that the configure egress counts those bytes once per request;
// that view, the coordinator's own sorted reference or input pool, lies
// inside those bytes; and, when want is non-nil, that the game still
// equals its sharded reference record for record.
func checkConfigureBroadcast(t *testing.T, rec *recordingTransport, configures int, view []float64, cs ClusterStats, want *Board, got Board) {
	t.Helper()
	first := rec.reqs[0][0]
	d, err := wire.DecodeDirective(first)
	if err != nil {
		t.Fatalf("slot 0's first request: %v", err)
	}
	if d.Op != wire.OpConfigure {
		t.Fatalf("slot 0's first request is op %d, not a configure", d.Op)
	}
	sent := 0
	for _, w := range slices.Sorted(maps.Keys(rec.reqs)) {
		for k, req := range rec.reqs[w] {
			if d, err := wire.DecodeDirective(req); err != nil || d.Op != wire.OpConfigure {
				continue
			}
			sent++
			if !bytes.Equal(req, first) {
				t.Fatalf("slot %d request %d: different configure bytes (%d B vs %d B)", w, k, len(req), len(first))
			}
			if &req[0] != &first[0] {
				t.Errorf("slot %d request %d: the configure was encoded separately", w, k)
			}
		}
	}
	if sent != configures {
		t.Fatalf("%d configures sent, want %d", sent, configures)
	}
	if n := int64(sent * len(first)); cs.EgressConfigBytes != n {
		t.Errorf("EgressConfigBytes = %d, want %d configures × %d B = %d", cs.EgressConfigBytes, sent, len(first), n)
	}
	if littleEndian() && !inside(view, first) {
		t.Error("the coordinator's sorted data is not a view of the configure bytes its workers were sent")
	}
	if want == nil {
		return
	}
	if len(got.Records) != len(want.Records) {
		t.Fatalf("%d rounds, reference has %d", len(got.Records), len(want.Records))
	}
	for i := range want.Records {
		if !want.Records[i].Equal(got.Records[i]) {
			t.Errorf("round %d diverged:\nreference %+v\ncluster   %+v", i+1, want.Records[i], got.Records[i])
		}
	}
}

// littleEndian reports whether the host is little-endian — the hosts on
// which wire.DecodeDirective views an aligned configure's blocks.
func littleEndian() bool { return binary.NativeEndian.Uint16([]byte{1, 0}) == 1 }

// inside reports whether the non-empty xs lies within buf's bytes.
func inside(xs []float64, buf []byte) bool {
	if len(xs) == 0 || len(buf) == 0 {
		return false
	}
	lo, p := reflect.ValueOf(buf).Pointer(), reflect.ValueOf(xs).Pointer()
	return p >= lo && p+uintptr(8*len(xs)) <= lo+uintptr(len(buf))
}

// playCluster runs a game newScalarCluster or newLDPCluster set up, as
// RunCluster and RunClusterLDP do, and fills its cluster stats.
func playCluster(t *testing.T, en *engine, cs *ClusterStats) {
	t.Helper()
	defer en.pool.stop()
	if err := en.run(); err != nil {
		t.Fatal(err)
	}
	en.pool.finishStats(cs)
}

// The configure message is encoded once per game and sent to every slot,
// and the coordinator reads its own sorted reference (scalar) or input
// pool (LDP) as a view of those bytes; the games still equal their
// sharded references record for record, and the egress accounting still
// charges every slot its copy. A slot re-admitted under Fleet re-join is
// sent the same bytes again, and charged for them again.
func TestConfigureBroadcastEncodedOnce(t *testing.T) {
	const workers = 4
	const failAfter, respawnAfter = 2, 4
	t.Run("scalar", func(t *testing.T) {
		gen := &ShardGen{MasterSeed: 91}
		reference, err := RunSharded(ShardedConfig{Config: shardLocalConfig(t), Shards: workers, Gen: gen})
		if err != nil {
			t.Fatal(err)
		}
		rec := newRecordingTransport(cluster.NewLoopback(workers))
		g, en, err := newScalarCluster(ClusterConfig{Config: shardLocalConfig(t), Transport: rec, Gen: gen})
		if err != nil {
			t.Fatal(err)
		}
		playCluster(t, en, &g.res.ClusterStats)
		checkConfigureBroadcast(t, rec, workers, g.ref, g.res.ClusterStats, &reference.Board, g.res.Board)

		lb := cluster.NewLoopback(workers)
		rec = newRecordingTransport(lb)
		cfg := ClusterConfig{Config: shardLocalConfig(t), Transport: rec, Gen: gen, Fleet: &fleet.Config{Rejoin: true}}
		cfg.OnRound = rejoinPattern(failAfter, respawnAfter, func() { lb.Fail(1) }, func() { lb.Respawn(1) })
		g, en, err = newScalarCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		playCluster(t, en, &g.res.ClusterStats)
		if len(g.res.FleetEvents) != 2 {
			t.Fatalf("fleet events %+v, want a drop and a re-admission", g.res.FleetEvents)
		}
		checkConfigureBroadcast(t, rec, workers+1, g.ref, g.res.ClusterStats, nil, g.res.Board)
	})
	t.Run("ldp", func(t *testing.T) {
		gen := &ShardGen{MasterSeed: 92}
		reference, err := RunShardedLDP(LDPShardedConfig{LDPConfig: shardLocalLDPConfig(t), Shards: workers, Gen: gen})
		if err != nil {
			t.Fatal(err)
		}
		rec := newRecordingTransport(cluster.NewLoopback(workers))
		g, en, err := newLDPCluster(LDPClusterConfig{LDPConfig: shardLocalLDPConfig(t), Transport: rec, Gen: gen})
		if err != nil {
			t.Fatal(err)
		}
		playCluster(t, en, &g.res.ClusterStats)
		checkConfigureBroadcast(t, rec, workers, g.inputs, g.res.ClusterStats, &reference.Board, g.res.Board)

		lb := cluster.NewLoopback(workers)
		rec = newRecordingTransport(lb)
		cfg := LDPClusterConfig{LDPConfig: shardLocalLDPConfig(t), Transport: rec, Gen: gen, Fleet: &fleet.Config{Rejoin: true}}
		cfg.OnRound = rejoinPattern(failAfter, respawnAfter, func() { lb.Fail(1) }, func() { lb.Respawn(1) })
		g, en, err = newLDPCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		playCluster(t, en, &g.res.ClusterStats)
		if len(g.res.FleetEvents) != 2 {
			t.Fatalf("fleet events %+v, want a drop and a re-admission", g.res.FleetEvents)
		}
		checkConfigureBroadcast(t, rec, workers+1, g.inputs, g.res.ClusterStats, nil, g.res.Board)
	})
}

// Worker loss under shard-local generation: drop-and-continue, with the
// survivors re-deriving specs over the smaller pool so the full batch is
// covered again from the next round on.
func TestShardLocalWorkerLoss(t *testing.T) {
	const workers = 4
	lb := cluster.NewLoopback(workers)
	cfg := ClusterConfig{
		Config:    shardLocalConfig(t),
		Transport: lb,
		Gen:       &ShardGen{MasterSeed: 55},
	}
	failAt := cfg.Rounds / 2
	rounds := 0
	cfg.OnRound = func(RoundRecord) {
		rounds++
		if rounds == failAt {
			lb.Fail(1)
		}
	}
	res, err := RunCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.LostShards != 1 {
		t.Fatalf("LostShards = %d, want 1", res.LostShards)
	}
	for i, rec := range res.Board.Records {
		total := rec.HonestKept + rec.HonestTrimmed
		switch {
		case i+1 <= failAt:
			if total != cfg.Batch {
				t.Errorf("round %d (healthy): honest tally %d, want %d", i+1, total, cfg.Batch)
			}
		case i+1 == failAt+1:
			if total >= cfg.Batch {
				t.Errorf("failure round %d: honest tally %d not short of %d", i+1, total, cfg.Batch)
			}
		default:
			if total != cfg.Batch {
				t.Errorf("round %d (post-loss): honest tally %d, want %d", i+1, total, cfg.Batch)
			}
		}
	}
}

// Shard-local row game: deterministic, self-consistent, and within
// tolerance of the in-process central row game (different RNG streams,
// same distributions).
func TestShardLocalRows(t *testing.T) {
	mk := func() RowConfig {
		d := dataset.VehicleN(stats.NewRand(60), 400)
		static, err := trim.NewStatic("s", 0.9)
		if err != nil {
			t.Fatal(err)
		}
		adv, err := attack.NewPoint("p", 0.99)
		if err != nil {
			t.Fatal(err)
		}
		return RowConfig{
			Rounds: 5, Batch: 100, AttackRatio: 0.2,
			Data: d, Collector: static, Adversary: adv,
			PoisonLabel: -1,
		}
	}
	runLocal := func() *RowResult {
		res, err := RunShardedRows(RowShardedConfig{
			RowConfig: mk(), Shards: 4, Gen: &ShardGen{MasterSeed: 61},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	local, again := runLocal(), runLocal()
	for i := range local.Board.Records {
		if local.Board.Records[i] != again.Board.Records[i] {
			t.Fatalf("round %d diverged between identical master seeds", i+1)
		}
	}
	var kept, poisonKept int
	for _, rec := range local.Board.Records {
		kept += rec.HonestKept + rec.PoisonKept
		poisonKept += rec.PoisonKept
	}
	if got := local.Kept.Len(); got != kept {
		t.Errorf("kept dataset %d rows, accounting says %d", got, kept)
	}
	if local.KeptPoison != poisonKept {
		t.Errorf("KeptPoison %d, tallies say %d", local.KeptPoison, poisonKept)
	}
	if local.Kept.Y != nil && len(local.Kept.Y) != local.Kept.Len() {
		t.Errorf("%d labels for %d kept rows", len(local.Kept.Y), local.Kept.Len())
	}

	centralCfg := mk()
	centralCfg.Rng = stats.NewRand(62)
	central, err := RunRows(centralCfg)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := central.Board.PoisonRetention(), local.Board.PoisonRetention(); math.Abs(a-b) > 0.05 {
		t.Errorf("retention %v (central) vs %v (shard-local)", a, b)
	}
	if a, b := central.Board.HonestLoss(), local.Board.HonestLoss(); math.Abs(a-b) > 0.05 {
		t.Errorf("honest loss %v (central) vs %v (shard-local)", a, b)
	}
}

// Shard-local LDP game: deterministic, mean estimate and true mean agree
// with the in-process central game within mechanism noise.
func TestShardLocalLDP(t *testing.T) {
	mkInputs := func() []float64 {
		inputs := make([]float64, 3000)
		rng := stats.NewRand(63)
		for i := range inputs {
			inputs[i] = stats.Clamp(rng.NormFloat64()*0.3, -1, 1)
		}
		return inputs
	}
	mk := func() LDPConfig {
		mech, err := ldp.NewPiecewise(2)
		if err != nil {
			t.Fatal(err)
		}
		static, err := trim.NewStatic("s", 0.9)
		if err != nil {
			t.Fatal(err)
		}
		adv, err := attack.NewPoint("p", 0.99)
		if err != nil {
			t.Fatal(err)
		}
		return LDPConfig{
			Rounds: 8, Batch: 400, AttackRatio: 0.2,
			Inputs: mkInputs(), Mechanism: mech,
			Collector: static, Adversary: adv,
			TrimOnBatch: true,
		}
	}
	runLocal := func() *LDPResult {
		res, err := RunShardedLDP(LDPShardedConfig{
			LDPConfig: mk(), Shards: 4, Gen: &ShardGen{MasterSeed: 64},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	local, again := runLocal(), runLocal()
	if local.MeanEstimate != again.MeanEstimate || local.TrueMean != again.TrueMean {
		t.Fatal("shard-local LDP diverged between identical master seeds")
	}
	if len(local.AllReports) != 0 {
		t.Errorf("shard-local LDP pooled %d raw reports", len(local.AllReports))
	}
	// TrueMean is reduced from worker input sums; it must sit near the
	// pool mean (draws are uniform over the pool).
	poolMean := stats.Mean(mkInputs())
	if math.Abs(local.TrueMean-poolMean) > 0.05 {
		t.Errorf("TrueMean %v far from pool mean %v", local.TrueMean, poolMean)
	}
	if math.Abs(local.MeanEstimate-local.TrueMean) > 0.25 {
		t.Errorf("mean estimate %v far from true mean %v", local.MeanEstimate, local.TrueMean)
	}

	centralCfg := mk()
	centralCfg.Rng = stats.NewRand(65)
	central, err := RunLDP(centralCfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(central.MeanEstimate-local.MeanEstimate) > 0.15 {
		t.Errorf("mean estimate %v (central) vs %v (shard-local)", central.MeanEstimate, local.MeanEstimate)
	}
	if math.Abs(central.Board.PoisonRetention()-local.Board.PoisonRetention()) > 0.05 {
		t.Errorf("retention %v (central) vs %v (shard-local)",
			central.Board.PoisonRetention(), local.Board.PoisonRetention())
	}

	// Non-codable mechanisms are rejected up front in shard-local mode.
	badCfg := mk()
	badCfg.Mechanism = sumButNotCodable{}
	if _, err := RunShardedLDP(LDPShardedConfig{
		LDPConfig: badCfg, Shards: 2, Gen: &ShardGen{MasterSeed: 1},
	}); err == nil {
		t.Error("non-codable mechanism accepted in shard-local mode")
	}
}

// sumButNotCodable satisfies SumMeanEstimator but has no wire code.
type sumButNotCodable struct{}

func (sumButNotCodable) Perturb(rng *rand.Rand, x float64) float64 { return x }
func (sumButNotCodable) OutputBounds() (float64, float64)          { return -1, 1 }
func (sumButNotCodable) MeanEstimate(reports []float64) float64    { return stats.Mean(reports) }
func (sumButNotCodable) Epsilon() float64                          { return 1 }
func (sumButNotCodable) MeanEstimateFromSum(sum float64, n int) float64 {
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}
