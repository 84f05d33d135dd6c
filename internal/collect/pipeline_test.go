package collect

import (
	"fmt"
	"net"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/attack"
	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/fleet"
	"repro/internal/rowstore"
	"repro/internal/stats"
)

// countingTransport counts transport calls — the deterministic measure of
// the pipelined schedule's RTT win (wall-clock assertions would flake).
type countingTransport struct {
	cluster.Transport
	mu    sync.Mutex
	calls int
}

func (c *countingTransport) Call(w int, req []byte) ([]byte, error) {
	c.mu.Lock()
	c.calls++
	c.mu.Unlock()
	return c.Transport.Call(w, req)
}

func (c *countingTransport) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.calls
}

// The acceptance bar of the pipelined schedule: a pipelined shard-local run
// must reproduce the unpipelined run — and hence the single-process
// RunSharded reference — record for record, with identical kept-stream
// estimates, while making roughly half the transport calls (configure +
// R+1 fan-outs instead of configure + 2R fan-outs).
func TestPipelinedEqualsUnpipelinedScalar(t *testing.T) {
	for _, workers := range []int{2, 4} {
		gen := &ShardGen{MasterSeed: 90}
		cfg := shardLocalConfig(t)

		run := func(pipeline bool) (*Result, int) {
			ct := &countingTransport{Transport: cluster.NewLoopback(workers)}
			res, err := RunCluster(ClusterConfig{
				Config:    cfg,
				Transport: ct,
				Gen:       gen,
				Pipeline:  pipeline,
			})
			if err != nil {
				t.Fatal(err)
			}
			return res, ct.count()
		}
		plain, plainCalls := run(false)
		piped, pipedCalls := run(true)

		for i := range plain.Board.Records {
			if !plain.Board.Records[i].Equal(piped.Board.Records[i]) {
				t.Errorf("workers=%d round %d diverged under -pipeline:\nplain %+v\npiped %+v",
					workers, i+1, plain.Board.Records[i], piped.Board.Records[i])
			}
		}
		if plain.Kept.Count() != piped.Kept.Count() || plain.Kept.Sum() != piped.Kept.Sum() {
			t.Errorf("workers=%d: kept streams diverged under -pipeline", workers)
		}
		if plain.Received.Count() != piped.Received.Count() || plain.Received.Sum() != piped.Received.Sum() {
			t.Errorf("workers=%d: received streams diverged under -pipeline", workers)
		}

		// Calls: configure + (generate + classify) per round + stop, vs
		// configure + generate + combined×(R−1) + final classify + stop.
		r := cfg.Rounds
		if want := workers * (2*r + 2); plainCalls != want {
			t.Errorf("workers=%d: unpipelined made %d calls, want %d", workers, plainCalls, want)
		}
		if want := workers * (r + 3); pipedCalls != want {
			t.Errorf("workers=%d: pipelined made %d calls, want %d", workers, pipedCalls, want)
		}

		// Timing: the pipelined run's standalone Generate share collapses
		// into the combined Classify broadcasts.
		if piped.Timing.Rounds != r || plain.Timing.Rounds != r {
			t.Errorf("workers=%d: timing rounds %d/%d, want %d", workers, piped.Timing.Rounds, plain.Timing.Rounds, r)
		}
		if plain.Timing.Generate <= 0 || plain.Timing.Classify <= 0 || piped.Timing.Classify <= 0 {
			t.Errorf("workers=%d: zero phase timings: plain %+v piped %+v", workers, plain.Timing, piped.Timing)
		}
	}
}

// The LDP game pipelines the same way: records, mean estimate and the
// honest-input aggregate behind TrueMean all reproduce exactly.
func TestPipelinedEqualsUnpipelinedLDP(t *testing.T) {
	gen := &ShardGen{MasterSeed: 91}
	run := func(pipeline bool) *LDPResult {
		res, err := RunClusterLDP(LDPClusterConfig{
			LDPConfig: shardLocalLDPConfig(t),
			Transport: cluster.NewLoopback(3),
			Gen:       gen,
			Pipeline:  pipeline,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain, piped := run(false), run(true)
	for i := range plain.Board.Records {
		if !plain.Board.Records[i].Equal(piped.Board.Records[i]) {
			t.Errorf("round %d diverged under -pipeline", i+1)
		}
	}
	if plain.MeanEstimate != piped.MeanEstimate || plain.TrueMean != piped.TrueMean {
		t.Errorf("estimates diverged: mean %v/%v true %v/%v",
			plain.MeanEstimate, piped.MeanEstimate, plain.TrueMean, piped.TrueMean)
	}
}

// rowsPipelineConfig is the shared row game the pipeline/resume tests play.
func rowsPipelineConfig(t *testing.T, dataSeed int64) RowConfig {
	t.Helper()
	d := dataset.VehicleN(stats.NewRand(dataSeed), 300)
	adv, err := attack.NewPoint("p", 0.99)
	if err != nil {
		t.Fatal(err)
	}
	return RowConfig{
		Rounds: 8, Batch: 100, AttackRatio: 0.2,
		Data: d, Collector: mustStatic(t, 0.9), Adversary: adv,
		PoisonLabel: -1,
	}
}

// spillPrep keys a spill directory per worker slot under root, so loopback
// respawns and cross-run restarts recover the same pool a re-spawned
// `trimlab worker -spill-dir` process would.
func spillPrep(root string) func(*cluster.Worker) {
	return func(w *cluster.Worker) {
		dir := filepath.Join(root, fmt.Sprintf("w%d", w.ID()))
		w.SetPoolOpener(func() (rowstore.Pool, error) {
			return rowstore.OpenSpill(dir, rowstore.SpillConfig{})
		})
	}
}

// assertSameRowResult compares two row runs record for record, kept row for
// kept row, manifest for manifest.
func assertSameRowResult(t *testing.T, label string, want, got *RowResult) {
	t.Helper()
	if len(want.Board.Records) != len(got.Board.Records) {
		t.Fatalf("%s: %d rounds vs %d", label, len(got.Board.Records), len(want.Board.Records))
	}
	for i := range want.Board.Records {
		if !want.Board.Records[i].Equal(got.Board.Records[i]) {
			t.Errorf("%s: round %d diverged:\nwant %+v\ngot  %+v",
				label, i+1, want.Board.Records[i], got.Board.Records[i])
		}
	}
	if len(want.Kept.X) != len(got.Kept.X) {
		t.Fatalf("%s: kept pool %d rows, want %d", label, len(got.Kept.X), len(want.Kept.X))
	}
	for i := range want.Kept.X {
		for j := range want.Kept.X[i] {
			if want.Kept.X[i][j] != got.Kept.X[i][j] {
				t.Fatalf("%s: kept row %d coord %d: %v vs %v", label, i, j, got.Kept.X[i][j], want.Kept.X[i][j])
			}
		}
	}
	if len(want.Kept.Y) != len(got.Kept.Y) {
		t.Fatalf("%s: kept labels %d, want %d", label, len(got.Kept.Y), len(want.Kept.Y))
	}
	for i := range want.Kept.Y {
		if want.Kept.Y[i] != got.Kept.Y[i] {
			t.Fatalf("%s: kept label %d: %d vs %d", label, i, got.Kept.Y[i], want.Kept.Y[i])
		}
	}
	if want.KeptPoison != got.KeptPoison {
		t.Errorf("%s: kept poison %d, want %d", label, got.KeptPoison, want.KeptPoison)
	}
	if len(want.PoolRows) != len(got.PoolRows) {
		t.Fatalf("%s: pool manifest %v, want %v", label, got.PoolRows, want.PoolRows)
	}
	for i := range want.PoolRows {
		if want.PoolRows[i] != got.PoolRows[i] {
			t.Errorf("%s: pool manifest %v, want %v", label, got.PoolRows, want.PoolRows)
			break
		}
	}
}

// The row-game acceptance bar of the pipelined schedule (DESIGN.md §14): a
// pipelined LateCenter run must reproduce the unpipelined LateCenter run —
// board, kept rows, pool manifest — record for record, while collapsing the
// unpipelined two round-trips per round to ONE in the steady state: the
// combined classify+generate broadcast carries the next round's generator
// spec, so only round 1 fans a standalone generate. R rounds cost R+1
// fan-outs instead of 2R.
func TestLateCenterPipelinedEqualsUnpipelinedRows(t *testing.T) {
	const workers = 3
	gen := &ShardGen{MasterSeed: 93}
	run := func(pipeline bool) (*RowResult, int) {
		ct := &countingTransport{Transport: cluster.NewLoopback(workers)}
		res, err := RunClusterRows(RowClusterConfig{
			RowConfig:   rowsPipelineConfig(t, 92),
			Transport:   ct,
			Gen:         gen,
			LateCenter:  true,
			Pipeline:    pipeline,
			CollectKept: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res, ct.count()
	}
	plain, plainCalls := run(false)
	piped, pipedCalls := run(true)
	assertSameRowResult(t, "pipelined vs unpipelined late-center", plain, piped)
	if len(plain.Kept.X) == 0 {
		t.Fatal("late-center run kept no rows")
	}
	// Identical configure/fetch/stop traffic on both sides; the pipeline
	// runs R+1 fan-outs where the plain schedule runs 2R.
	r := plain.Board.Records[len(plain.Board.Records)-1].Round
	if want := workers * (r - 1); plainCalls-pipedCalls != want {
		t.Errorf("pipelined run saved %d calls (%d vs %d), want %d",
			plainCalls-pipedCalls, plainCalls, pipedCalls, want)
	}
}

// An unpipelined fresh-center row round is two fan-outs — generate, then
// classify — because the coordinator builds each round's clean scale
// itself: R rounds cost configure + 2R fan-outs + stop, one call per
// worker each.
func TestRowRoundIsTwoFanouts(t *testing.T) {
	const workers = 3
	ct := &countingTransport{Transport: cluster.NewLoopback(workers)}
	res, err := RunClusterRows(RowClusterConfig{
		RowConfig: rowsPipelineConfig(t, 92),
		Transport: ct,
		Gen:       &ShardGen{MasterSeed: 93},
	})
	if err != nil {
		t.Fatal(err)
	}
	r := len(res.Board.Records)
	if want := workers * (2*r + 2); ct.count() != want {
		t.Errorf("%d rounds made %d calls, want %d (configure + generate and classify per round + stop)",
			r, ct.count(), want)
	}
}

// The late-center schedule is a game-semantics change, not a free lunch:
// its board must NOT match the fresh-center reference (if it did, the
// delay line would not actually be in the trim loop).
func TestLateCenterChangesRowGame(t *testing.T) {
	gen := &ShardGen{MasterSeed: 93}
	run := func(late bool) *RowResult {
		res, err := RunClusterRows(RowClusterConfig{
			RowConfig:  rowsPipelineConfig(t, 92),
			Transport:  cluster.NewLoopback(3),
			Gen:        gen,
			LateCenter: late,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	fresh, late := run(false), run(true)
	same := true
	for i := range fresh.Board.Records {
		if !fresh.Board.Records[i].Equal(late.Board.Records[i]) {
			same = false
			break
		}
	}
	if same {
		t.Error("late-center board identical to fresh-center board; the delay line is not wired in")
	}
}

// Pipelining the row game requires the late-center schedule: with the
// fresh center, round r+1's generation needs round r's still-outstanding
// deltas and the overlap is rejected up front.
func TestPipelinedRowsRequireLateCenter(t *testing.T) {
	_, err := RunClusterRows(RowClusterConfig{
		RowConfig: rowsPipelineConfig(t, 92),
		Transport: cluster.NewLoopback(3),
		Gen:       &ShardGen{MasterSeed: 93},
		Pipeline:  true,
	})
	if err == nil || !strings.Contains(err.Error(), "LateCenter") {
		t.Errorf("err = %v, want LateCenter rejection", err)
	}
}

// A pipelined row run over real TCP sockets matches the unpipelined
// late-center loopback reference record for record, kept rows included —
// the combined op, the pool-total replies and the end-of-game row fetch
// all cross the wire.
func TestPipelinedRowsOverTCPMatchesReference(t *testing.T) {
	const workers = 3
	gen := &ShardGen{MasterSeed: 95}
	reference, err := RunClusterRows(RowClusterConfig{
		RowConfig:   rowsPipelineConfig(t, 94),
		Transport:   cluster.NewLoopback(workers),
		Gen:         gen,
		LateCenter:  true,
		CollectKept: true,
	})
	if err != nil {
		t.Fatal(err)
	}

	addrs := make([]string, workers)
	for i := 0; i < workers; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		w := cluster.NewWorker(i)
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
	piped, err := RunClusterRows(RowClusterConfig{
		RowConfig:   rowsPipelineConfig(t, 94),
		Transport:   tr,
		Gen:         gen,
		LateCenter:  true,
		Pipeline:    true,
		CollectKept: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	assertSameRowResult(t, "pipelined TCP vs loopback reference", reference, piped)
}

// Kill/re-join under the pipelined row schedule, with spill-backed pools:
// the respawned worker recovers its kept pool from disk, the fleet
// re-admits it, and the run stays deterministic — an identical chaos
// schedule reproduces it record for record and row for row. Rounds before
// the loss match the clean reference, and no surviving pool loses a row:
// the fetched kept pool accounts for exactly the board's kept tallies.
func TestPipelinedRowsRejoinSpillRecovery(t *testing.T) {
	const workers = 3
	const failAfter, respawnAfter = 3, 5
	gen := &ShardGen{MasterSeed: 96}

	reference, err := RunClusterRows(RowClusterConfig{
		RowConfig:   rowsPipelineConfig(t, 97),
		Transport:   cluster.NewLoopback(workers),
		Gen:         gen,
		LateCenter:  true,
		CollectKept: true,
	})
	if err != nil {
		t.Fatal(err)
	}

	chaos := func(root string) *RowResult {
		lb := cluster.NewLoopbackPrepared(workers, spillPrep(root))
		cfg := RowClusterConfig{
			RowConfig:   rowsPipelineConfig(t, 97),
			Transport:   lb,
			Gen:         gen,
			LateCenter:  true,
			Pipeline:    true,
			CollectKept: true,
			Fleet:       &fleet.Config{Rejoin: true},
		}
		cfg.OnRound = rejoinPattern(failAfter, respawnAfter,
			func() { lb.Fail(1) }, func() { lb.Respawn(1) })
		res, err := RunClusterRows(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	res := chaos(t.TempDir())

	if res.LostShards != 1 {
		t.Fatalf("LostShards %d, Losses %+v", res.LostShards, res.Losses)
	}
	if res.WholeSince != respawnAfter+1 {
		t.Fatalf("WholeSince = %d, want %d (events %+v)", res.WholeSince, respawnAfter+1, res.FleetEvents)
	}
	for i := 0; i < failAfter; i++ {
		if !reference.Board.Records[i].Equal(res.Board.Records[i]) {
			t.Errorf("pre-loss round %d diverged:\nreference %+v\nchaos     %+v",
				i+1, reference.Board.Records[i], res.Board.Records[i])
		}
	}
	// Every kept row the board tallied is held by some live pool — the
	// killed worker's pre-kill rows survived on disk and were recovered by
	// the respawned process.
	wantKept := 0
	for _, rec := range res.Board.Records {
		wantKept += rec.HonestKept + rec.PoisonKept
	}
	if got := len(res.Kept.X); got != wantKept {
		t.Errorf("fetched kept pool %d rows, board tallies %d (pool manifest %v)", got, wantKept, res.PoolRows)
	}
	manifest := 0
	for _, n := range res.PoolRows {
		manifest += n
	}
	if manifest != wantKept {
		t.Errorf("pool manifest %v sums to %d, board tallies %d", res.PoolRows, manifest, wantKept)
	}

	// Same chaos schedule, fresh spill root: identical run.
	assertSameRowResult(t, "chaos replay", res, chaos(t.TempDir()))
}

// Checkpoint/resume for the row game, spill-backed: a pipelined
// checkpointing run equals the unpipelined plain run; a resume from a
// mid-game snapshot — against the same spill directories, whose pools the
// original run has since grown five rounds past the snapshot — rolls every
// pool back to the snapshot manifest (OpPoolTrim) and finishes identically.
// A resume against cold in-memory pools must fail loudly instead.
func TestRowsCheckpointResumeLoopback(t *testing.T) {
	const workers = 3
	gen := &ShardGen{MasterSeed: 98}
	ckDir := t.TempDir()
	spillRoot := t.TempDir()
	ck, err := fleet.NewCheckpointer(ckDir, 3)
	if err != nil {
		t.Fatal(err)
	}

	full, err := RunClusterRows(RowClusterConfig{
		RowConfig:   rowsPipelineConfig(t, 99),
		Transport:   cluster.NewLoopbackPrepared(workers, spillPrep(spillRoot)),
		Gen:         gen,
		LateCenter:  true,
		Pipeline:    true,
		CollectKept: true,
		Checkpoint:  ck,
	})
	if err != nil {
		t.Fatal(err)
	}

	// The pipelined checkpointing run equals the plain unpipelined run
	// (checkpoints cut at a drained pipeline; in-memory pools suffice for
	// the reference).
	plain, err := RunClusterRows(RowClusterConfig{
		RowConfig:   rowsPipelineConfig(t, 99),
		Transport:   cluster.NewLoopback(workers),
		Gen:         gen,
		LateCenter:  true,
		CollectKept: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	assertSameRowResult(t, "pipelined checkpointing vs plain", plain, full)

	snap, err := fleet.Load(filepath.Join(ckDir, "checkpoint-000003.tq"))
	if err != nil {
		t.Fatal(err)
	}
	if snap.NextRound != 4 {
		t.Fatalf("snapshot next round %d, want 4", snap.NextRound)
	}
	resumed, err := RunClusterRows(RowClusterConfig{
		RowConfig:   rowsPipelineConfig(t, 99),
		Transport:   cluster.NewLoopbackPrepared(workers, spillPrep(spillRoot)),
		Gen:         gen,
		LateCenter:  true,
		Pipeline:    true,
		CollectKept: true,
		Resume:      snap,
	})
	if err != nil {
		t.Fatal(err)
	}
	assertSameRowResult(t, "resumed vs full", full, resumed)

	// Cold in-memory pools cannot satisfy the snapshot manifest.
	_, err = RunClusterRows(RowClusterConfig{
		RowConfig:  rowsPipelineConfig(t, 99),
		Transport:  cluster.NewLoopback(workers),
		Gen:        gen,
		LateCenter: true,
		Resume:     snap,
	})
	if err == nil || !strings.Contains(err.Error(), "-spill-dir") {
		t.Errorf("cold resume err = %v, want pool-survival failure", err)
	}
}

// Rows resume over real TCP sockets: freshly served worker processes whose
// spill openers point at the original run's directories recover the pools,
// and the resumed run finishes identically.
func TestRowsCheckpointResumeTCP(t *testing.T) {
	const workers = 2
	gen := &ShardGen{MasterSeed: 100}
	ckDir := t.TempDir()
	spillRoot := t.TempDir()
	ck, err := fleet.NewCheckpointer(ckDir, 3)
	if err != nil {
		t.Fatal(err)
	}
	full, err := RunClusterRows(RowClusterConfig{
		RowConfig:   rowsPipelineConfig(t, 101),
		Transport:   cluster.NewLoopbackPrepared(workers, spillPrep(spillRoot)),
		Gen:         gen,
		LateCenter:  true,
		CollectKept: true,
		Checkpoint:  ck,
	})
	if err != nil {
		t.Fatal(err)
	}
	snap, _, err := fleet.LoadLatest(ckDir)
	if err != nil {
		t.Fatal(err)
	}
	if snap.NextRound != 7 {
		t.Fatalf("latest snapshot next round %d, want 7", snap.NextRound)
	}

	prep := spillPrep(spillRoot)
	addrs := make([]string, workers)
	for i := 0; i < workers; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		w := cluster.NewWorker(i)
		prep(w)
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
	resumed, err := RunClusterRows(RowClusterConfig{
		RowConfig:   rowsPipelineConfig(t, 101),
		Transport:   tr,
		Gen:         gen,
		LateCenter:  true,
		Pipeline:    true,
		CollectKept: true,
		Resume:      snap,
	})
	if err != nil {
		t.Fatal(err)
	}
	assertSameRowResult(t, "TCP resumed vs full", full, resumed)
}

// Pipelining requires the shard-local data plane on every game: a
// pipelined config without a ShardGen is refused.
func TestPipelineRequiresShardGen(t *testing.T) {
	ccfg := clusterConfig(t, 94, 2)
	ccfg.Gen = nil
	ccfg.Pipeline = true
	if _, err := RunCluster(ccfg); err == nil || !strings.Contains(err.Error(), "shard-local") {
		t.Errorf("scalar: err = %v, want shard-local rejection", err)
	}
	lcfg := LDPClusterConfig{
		LDPConfig: shardLocalLDPConfig(t),
		Transport: cluster.NewLoopback(2),
		Pipeline:  true,
	}
	lcfg.Rng = stats.NewRand(1)
	if _, err := RunClusterLDP(lcfg); err == nil || !strings.Contains(err.Error(), "shard-local") {
		t.Errorf("ldp: err = %v, want shard-local rejection", err)
	}
}

// A pipelined run over real TCP sockets matches the single-process
// RunSharded reference record for record — the combined op crosses the
// wire like any other directive.
func TestPipelinedOverTCPMatchesReference(t *testing.T) {
	const workers = 3
	gen := &ShardGen{MasterSeed: 95}
	reference, err := RunSharded(ShardedConfig{
		Config: shardLocalConfig(t), Shards: workers, Gen: gen,
	})
	if err != nil {
		t.Fatal(err)
	}

	addrs := make([]string, workers)
	for i := 0; i < workers; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		w := cluster.NewWorker(i)
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
	piped, err := RunCluster(ClusterConfig{
		Config:    shardLocalConfig(t),
		Transport: tr,
		Gen:       gen,
		Pipeline:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range reference.Board.Records {
		if !reference.Board.Records[i].Equal(piped.Board.Records[i]) {
			t.Errorf("round %d diverged between reference and pipelined TCP run:\nreference %+v\npiped     %+v",
				i+1, reference.Board.Records[i], piped.Board.Records[i])
		}
	}
}

// Kill/re-join under -pipeline: the speculation built under the old
// membership epoch is flushed at the next boundary, the survivors
// repartition exactly as an unpipelined run would, and the fleet invariant
// holds — pre-loss and post-recovery records match the uninterrupted
// reference record for record.
func TestPipelinedRejoinMatchesReference(t *testing.T) {
	const workers = 3
	const failAfter, respawnAfter = 3, 5
	gen := &ShardGen{MasterSeed: 96}

	reference, err := RunSharded(ShardedConfig{
		Config: shardLocalConfig(t), Shards: workers, Gen: gen,
	})
	if err != nil {
		t.Fatal(err)
	}

	lb := cluster.NewLoopback(workers)
	cfg := ClusterConfig{
		Config:    shardLocalConfig(t),
		Transport: lb,
		Gen:       gen,
		Pipeline:  true,
		Fleet:     &fleet.Config{Rejoin: true},
	}
	cfg.OnRound = rejoinPattern(failAfter, respawnAfter,
		func() { lb.Fail(1) }, func() { lb.Respawn(1) })
	res, err := RunCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// The kill lands between the combined broadcast of round failAfter and
	// the next one, so the loss surfaces at round failAfter+1's combined
	// call; the speculated round failAfter+2 is flushed and re-fanned over
	// the survivors.
	if res.LostShards != 1 || len(res.Losses) != 1 {
		t.Fatalf("LostShards %d, Losses %+v", res.LostShards, res.Losses)
	}
	loss := res.Losses[0]
	lo, hi := shardBounds(cfg.Batch, workers, 1)
	if loss.Round != failAfter+1 || loss.Worker != 1 || loss.Phase != "classify+generate" ||
		loss.Lo != lo || loss.Hi != hi {
		t.Fatalf("loss = %+v, want round %d worker 1 classify+generate [%d, %d)", loss, failAfter+1, lo, hi)
	}
	if res.WholeSince != respawnAfter+1 {
		t.Fatalf("WholeSince = %d, want %d (events %+v)", res.WholeSince, respawnAfter+1, res.FleetEvents)
	}

	for i := 0; i < failAfter; i++ {
		if !reference.Board.Records[i].Equal(res.Board.Records[i]) {
			t.Errorf("pre-loss round %d diverged:\nreference %+v\npipelined %+v",
				i+1, reference.Board.Records[i], res.Board.Records[i])
		}
	}
	// The failure round's classify tallies run short (its summarize share
	// was speculated before the kill, so only the classify slice is gone).
	short := res.Board.Records[failAfter]
	if short.HonestKept+short.HonestTrimmed >= cfg.Batch {
		t.Errorf("failure round tally %d not short of %d", short.HonestKept+short.HonestTrimmed, cfg.Batch)
	}
	for i := res.WholeSince - 1; i < cfg.Rounds; i++ {
		if !reference.Board.Records[i].Equal(res.Board.Records[i]) {
			t.Errorf("post-recovery round %d diverged:\nreference %+v\npipelined %+v",
				i+1, reference.Board.Records[i], res.Board.Records[i])
		}
	}
}

// Checkpoint/resume under -pipeline: checkpoints cut at a drained pipeline,
// so a pipelined checkpointing run matches the unpipelined one bit for bit,
// and a pipelined resume from any of its snapshots finishes identically.
func TestPipelinedCheckpointResume(t *testing.T) {
	const workers = 3
	gen := &ShardGen{MasterSeed: 97}
	dir := t.TempDir()
	ck, err := fleet.NewCheckpointer(dir, 3)
	if err != nil {
		t.Fatal(err)
	}

	piped, err := RunCluster(ClusterConfig{
		Config:     shardLocalConfig(t),
		Transport:  cluster.NewLoopback(workers),
		Gen:        gen,
		Pipeline:   true,
		Checkpoint: ck,
	})
	if err != nil {
		t.Fatal(err)
	}

	// The pipelined checkpointing run equals the unpipelined plain run.
	plain, err := RunCluster(ClusterConfig{
		Config:    shardLocalConfig(t),
		Transport: cluster.NewLoopback(workers),
		Gen:       gen,
	})
	if err != nil {
		t.Fatal(err)
	}
	assertSameFinalState(t, plain, piped)

	// Resume — itself pipelined — from the earliest snapshot, so the
	// longest possible pipelined window replays (rounds 4..10).
	snap, err := fleet.Load(filepath.Join(dir, "checkpoint-000003.tq"))
	if err != nil {
		t.Fatal(err)
	}
	if snap.NextRound != 4 {
		t.Fatalf("snapshot next round %d, want 4", snap.NextRound)
	}
	resumed, err := RunCluster(ClusterConfig{
		Config:    shardLocalConfig(t),
		Transport: cluster.NewLoopback(workers),
		Gen:       gen,
		Pipeline:  true,
		Resume:    snap,
	})
	if err != nil {
		t.Fatal(err)
	}
	assertSameFinalState(t, piped, resumed)
}

// raceDetector is set in -race builds (race_test.go), whose instrumentation
// overhead distorts wall-clock ratios; timing gates skip under it.
var raceDetector bool

// The delay-injecting transport makes the RTT win observable without real
// sockets: with a 2 ms per-call latency the pipelined run's data-plane
// wall clock must undercut the unpipelined run's by a clear margin (the
// sleep floor alone guarantees ~2× at these fan-out counts; the assertion
// keeps slack for scheduler noise on a loaded machine, compares the
// fastest of three interleaved runs per side, and is checked outside the
// race detector only — the plain test run keeps the gate).
func TestPipelinedUndercutsDelayedUnpipelined(t *testing.T) {
	gen := &ShardGen{MasterSeed: 98}
	cfg := shardLocalConfig(t)
	cfg.Batch = 100 // latency-dominated on purpose
	run := func(pipeline bool) Timing {
		res, err := RunCluster(ClusterConfig{
			Config:    cfg,
			Transport: cluster.WithDelay(cluster.NewLoopback(2), 2*time.Millisecond),
			Gen:       gen,
			Pipeline:  pipeline,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Timing
	}
	// Each side's figure is the minimum over interleaved runs, as the gate
	// scripts take theirs: a run that shares the machine with other work
	// only ever reads slower, so the minimum is the least disturbed one.
	const runs = 3
	var plain, piped Timing
	for i := 0; i < runs; i++ {
		pl, pp := run(false), run(true)
		if pl.DataPlane() <= 0 || pp.DataPlane() <= 0 {
			t.Fatalf("empty timings: plain %+v piped %+v", pl, pp)
		}
		if pp.PerRound() <= 0 {
			t.Errorf("PerRound = %v", pp.PerRound())
		}
		if i == 0 || pl.DataPlane() < plain.DataPlane() {
			plain = pl
		}
		if i == 0 || pp.DataPlane() < piped.DataPlane() {
			piped = pp
		}
	}
	// Sleep floors: unpipelined ≥ 2R fan-outs × 2 ms, pipelined ≥ (R+1) ×
	// 2 ms. Demand the pipelined run beat 3/4 of the unpipelined one —
	// far above the expected ~1/2, immune to one-sided sleep jitter.
	if piped.DataPlane() >= plain.DataPlane()*3/4 && !raceDetector {
		t.Errorf("pipelined data plane %v (fastest of %d) did not undercut unpipelined %v (fastest of %d)",
			piped.DataPlane(), runs, plain.DataPlane(), runs)
	}
}
