package collect

import (
	"fmt"
	"math"
	"math/rand"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/attack"
	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/stats/summary"
	"repro/internal/trim"
)

// clusterConfig is the scalar cluster game on baseConfig's game, seeded
// for the shard-local data plane from the same seed (the central
// Honest/Rng ride along unused).
func clusterConfig(t *testing.T, seed int64, workers int) ClusterConfig {
	t.Helper()
	return ClusterConfig{
		Config:    baseConfig(t, seed),
		Transport: cluster.NewLoopback(workers),
		Gen:       &ShardGen{MasterSeed: seed},
	}
}

func TestRunClusterValidation(t *testing.T) {
	bad := []func(*ClusterConfig){
		func(c *ClusterConfig) { c.Transport = nil },
		func(c *ClusterConfig) { c.Transport = cluster.NewLoopback(0) },
		func(c *ClusterConfig) { c.ExactQuantiles = true },
		func(c *ClusterConfig) { c.Rounds = 0 },
		func(c *ClusterConfig) { c.Gen = nil },
		func(c *ClusterConfig) { c.SummaryEpsilon = 1 },
	}
	for i, mutate := range bad {
		cfg := clusterConfig(t, 30, 4)
		mutate(&cfg)
		if _, err := RunCluster(cfg); err == nil {
			t.Errorf("case %d should fail validation", i)
		}
	}
}

// Every cluster entry point and every sharded engine refuses a config
// without a ShardGen up front, with the same error: sharded and cluster
// rounds exist only on the shard-local data plane.
func TestClusterGamesRequireShardGen(t *testing.T) {
	rows := func() RowConfig { return rowsPipelineConfig(t, 40) }
	ldpCfg := func() LDPConfig { return shardLocalLDPConfig(t) }
	runs := map[string]func() error{
		"RunSharded": func() error {
			_, err := RunSharded(ShardedConfig{Config: baseConfig(t, 30), Shards: 2})
			return err
		},
		"RunCluster": func() error {
			cfg := clusterConfig(t, 30, 2)
			cfg.Gen = nil
			_, err := RunCluster(cfg)
			return err
		},
		"RunClusterRows": func() error {
			_, err := RunClusterRows(RowClusterConfig{RowConfig: rows(), Transport: cluster.NewLoopback(2)})
			return err
		},
		"RunClusterLDP": func() error {
			_, err := RunClusterLDP(LDPClusterConfig{LDPConfig: ldpCfg(), Transport: cluster.NewLoopback(2)})
			return err
		},
		"RunShardedRows": func() error {
			_, err := RunShardedRows(RowShardedConfig{RowConfig: rows(), Shards: 2})
			return err
		},
		"RunShardedLDP": func() error {
			_, err := RunShardedLDP(LDPShardedConfig{LDPConfig: ldpCfg(), Shards: 2})
			return err
		},
	}
	for name, run := range runs {
		if err := run(); err == nil || !strings.Contains(err.Error(), "Gen (a ShardGen) is required") {
			t.Errorf("%s without Gen: err = %v, want the shard-local data plane refusal", name, err)
		}
	}
}

// The loopback cluster must reproduce the in-process sharded game exactly:
// same seed, same shard count, same derived streams, same shard-order
// merge — the wire encoding in between is bit-exact, so every resolved
// threshold (and the whole board) is equal, not merely within ε.
func TestRunClusterEqualsRunSharded(t *testing.T) {
	const workers = 5
	scfg := ShardedConfig{Config: baseConfig(t, 31), Shards: workers, Gen: &ShardGen{MasterSeed: 31}}
	scfg.TrimOnBatch = true
	sharded, err := RunSharded(scfg)
	if err != nil {
		t.Fatal(err)
	}
	ccfg := clusterConfig(t, 31, workers)
	ccfg.TrimOnBatch = true
	clustered, err := RunCluster(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(clustered.Board.Records), len(sharded.Board.Records); got != want {
		t.Fatalf("rounds: %d vs %d", got, want)
	}
	for i := range sharded.Board.Records {
		if sharded.Board.Records[i] != clustered.Board.Records[i] {
			t.Errorf("round %d diverged:\nsharded   %+v\nclustered %+v",
				i+1, sharded.Board.Records[i], clustered.Board.Records[i])
		}
	}
	if clustered.LostShards != 0 {
		t.Errorf("lost shards = %d on a healthy cluster", clustered.LostShards)
	}
}

func TestRunClusterDeterministic(t *testing.T) {
	run := func() *Result {
		cfg := clusterConfig(t, 33, 4)
		cfg.TrimOnBatch = true
		res, err := RunCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	for i := range a.Board.Records {
		if a.Board.Records[i] != b.Board.Records[i] {
			t.Fatalf("round %d diverged between identical seeds", i+1)
		}
	}
}

// Worker failure is drop-and-continue: the game completes on the
// survivors, the loss is logged and counted, and only the failure round's
// tallies run short (the lost shard's slice).
func TestRunClusterWorkerLoss(t *testing.T) {
	const workers = 4
	lb := cluster.NewLoopback(workers)
	var mu sync.Mutex
	var logs []string
	cfg := ClusterConfig{
		Config:    baseConfig(t, 34),
		Transport: lb,
		Gen:       &ShardGen{MasterSeed: 34},
		Log: obs.NewLogger(obs.PrintfSink(func(format string, args ...any) {
			mu.Lock()
			defer mu.Unlock()
			logs = append(logs, fmt.Sprintf(format, args...))
		})),
	}
	cfg.TrimOnBatch = true
	failAt := cfg.Rounds / 2
	rounds := 0
	cfg.OnRound = func(RoundRecord) {
		rounds++
		if rounds == failAt {
			lb.Fail(2)
		}
	}
	res, err := RunCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.LostShards != 1 {
		t.Fatalf("LostShards = %d, want 1", res.LostShards)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(logs) == 0 || !strings.Contains(strings.Join(logs, "\n"), "dropping worker 2") {
		t.Fatalf("shard loss not logged: %q", logs)
	}
	if got, want := len(res.Board.Records), cfg.Rounds; got != want {
		t.Fatalf("game stopped early: %d/%d rounds", got, want)
	}
	for i, rec := range res.Board.Records {
		total := rec.HonestKept + rec.HonestTrimmed
		if i+1 <= failAt {
			if total != cfg.Batch {
				t.Errorf("round %d (healthy): honest tally %d, want %d", i+1, total, cfg.Batch)
			}
		} else if i+1 == failAt+1 {
			if total >= cfg.Batch {
				t.Errorf("failure round %d: honest tally %d not short of %d", i+1, total, cfg.Batch)
			}
		} else if total != cfg.Batch {
			// Survivors repartition the full batch from the next round on.
			t.Errorf("round %d (post-loss): honest tally %d, want %d", i+1, total, cfg.Batch)
		}
	}
}

// More workers than arrivals: some shards draw empty slices every round.
// Empty shards must complete both phases (regression: an empty shard
// slice is nil and once tripped the classify "no summarize" guard,
// dropping healthy workers as lost shards).
func TestRunClusterEmptyShards(t *testing.T) {
	cfg := clusterConfig(t, 44, 8)
	cfg.Batch = 3
	cfg.AttackRatio = 0
	cfg.TrimOnBatch = true
	res, err := RunCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.LostShards != 0 {
		t.Fatalf("LostShards = %d on a healthy cluster with empty shards", res.LostShards)
	}
	for _, rec := range res.Board.Records {
		if rec.HonestKept+rec.HonestTrimmed != cfg.Batch {
			t.Fatalf("round %d: honest tally %d, want %d", rec.Round, rec.HonestKept+rec.HonestTrimmed, cfg.Batch)
		}
	}
}

// After a shard loss, the Kept stream must stay consistent with the
// tallies: the lost slice is missing from both.
func TestRunClusterWorkerLossKeptConsistency(t *testing.T) {
	lb := cluster.NewLoopback(4)
	cfg := ClusterConfig{Config: baseConfig(t, 45), Transport: lb, Gen: &ShardGen{MasterSeed: 45}}
	cfg.TrimOnBatch = true
	rounds := 0
	cfg.OnRound = func(RoundRecord) {
		rounds++
		if rounds == cfg.Rounds/2 {
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
	var tallied int
	for _, rec := range res.Board.Records {
		tallied += rec.HonestKept + rec.PoisonKept
	}
	if res.Kept.Count() != tallied {
		t.Errorf("Kept stream count %d, tallies say %d", res.Kept.Count(), tallied)
	}
}

func TestRunClusterAllWorkersLost(t *testing.T) {
	lb := cluster.NewLoopback(2)
	cfg := ClusterConfig{Config: baseConfig(t, 35), Transport: lb, Gen: &ShardGen{MasterSeed: 35}}
	cfg.TrimOnBatch = true
	cfg.OnRound = func(RoundRecord) {
		lb.Fail(0)
		lb.Fail(1)
	}
	if _, err := RunCluster(cfg); err == nil {
		t.Fatal("game continued with zero workers")
	}
}

// The cluster game over real TCP/net-rpc (in-process servers, real
// sockets) must match the loopback run bit for bit: the transport cannot
// influence the game.
func TestRunClusterOverTCP(t *testing.T) {
	const workers = 3
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
	ccfg := ClusterConfig{Config: baseConfig(t, 36), Transport: tr, Gen: &ShardGen{MasterSeed: 36}}
	ccfg.TrimOnBatch = true
	overTCP, err := RunCluster(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	lcfg := clusterConfig(t, 36, workers)
	lcfg.TrimOnBatch = true
	loopback, err := RunCluster(lcfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range loopback.Board.Records {
		if loopback.Board.Records[i] != overTCP.Board.Records[i] {
			t.Errorf("round %d diverged between loopback and TCP", i+1)
		}
	}
}

// Kept-pool estimators: every engine — the central Run, the shard-local
// RunSharded and RunCluster — must match the tallies exactly in its Kept
// count, and engines that play the same game over the same stream (the
// shard-local pair on one master seed) must agree on the summary-driven
// mean/quantiles (exact running sums for the mean; the ε budget plus merge
// slack for quantiles).
func TestKeptEstimatorsAgreeAcrossEngines(t *testing.T) {
	cfg := baseConfig(t, 37)
	cfg.TrimOnBatch = true
	gen := &ShardGen{MasterSeed: 38}
	engines := []struct {
		name string
		pair bool // compare against the previous engine
		run  func() (*Result, error)
	}{
		{"run", false, func() (*Result, error) { return Run(cfg) }},
		{"sharded-local", false, func() (*Result, error) {
			return RunSharded(ShardedConfig{Config: cfg, Shards: 3, Gen: gen})
		}},
		{"cluster", true, func() (*Result, error) {
			return RunCluster(ClusterConfig{Config: cfg, Transport: cluster.NewLoopback(3), Gen: gen})
		}},
	}
	var ref *Result
	for _, en := range engines {
		cfg.Rng = stats.NewRand(38) // a fresh stream for Run; the shard-local engines ignore it
		res, err := en.run()
		if err != nil {
			t.Fatalf("%s: %v", en.name, err)
		}
		if res.Kept == nil {
			t.Fatalf("%s: no kept summary", en.name)
		}
		var tallied int
		for _, rec := range res.Board.Records {
			tallied += rec.HonestKept + rec.PoisonKept
		}
		if res.Kept.Count() != tallied {
			t.Errorf("%s: kept count %d, tallies %d", en.name, res.Kept.Count(), tallied)
		}
		if !en.pair {
			ref = res
			continue
		}
		if got, want := res.Kept.Count(), ref.Kept.Count(); got != want {
			t.Errorf("%s: kept count %d, reference engine %d", en.name, got, want)
		}
		if got, want := res.KeptMean(), ref.KeptMean(); math.Abs(got-want) > 1e-9*math.Abs(want) {
			t.Errorf("%s: KeptMean %v, reference engine %v", en.name, got, want)
		}
		for _, q := range []float64{0.1, 0.5, 0.9} {
			got, want := res.KeptQuantile(q), ref.KeptQuantile(q)
			// Each sketch answers within ε of the true rank; two sketches
			// of the same pool can differ by at most the summed budgets.
			if lo, hi := ref.KeptQuantile(q-2*cfg.SummaryEpsilon-0.02), ref.KeptQuantile(q+2*cfg.SummaryEpsilon+0.02); got < lo || got > hi {
				t.Errorf("%s: KeptQuantile(%v) = %v outside reference band [%v, %v] around %v", en.name, q, got, lo, hi, want)
			}
		}
	}
}

// The cluster's workers and RunSharded build every shard stream with one
// kernel (arrival.Summarize, after arrival.Keep on classify), so with the
// same Gen a flat cluster's game-long Received and Kept streams are
// RunSharded's: entry for entry, with bit-identical counts and sums, plain,
// pipelined and focused. Every shard keeps more than one 32,768-value batch
// chunk a round, so the summaries are built from several pre-compressed
// chunk blocks. A W×C cluster reproduces the flat W·C reference's boards,
// Received entries and both streams' counts; its Kept entries and the
// streams' sums are not shape-invariant (a worker builds one kept stream
// over all its cells, and sums its cells before the coordinator sums its
// workers).
func TestKeptStreamLockstep(t *testing.T) {
	cfg := baseConfig(t, 41)
	cfg.Rounds, cfg.Batch = 3, 120_000
	gen := &ShardGen{MasterSeed: 42}
	reference := func(shards, tighten int) *Result {
		t.Helper()
		c := cfg
		c.FocusTighten = tighten
		res, err := RunSharded(ShardedConfig{Config: c, Shards: shards, Gen: gen})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	sameBoard := func(name string, got, want *Result) {
		t.Helper()
		for i := range want.Board.Records {
			if !got.Board.Records[i].Equal(want.Board.Records[i]) {
				t.Errorf("%s: round %d record %+v, RunSharded %+v", name, i+1, got.Board.Records[i], want.Board.Records[i])
			}
		}
	}
	sameEntries := func(name, stream string, got, want *summary.Stream) {
		t.Helper()
		if !slices.Equal(got.Snapshot().Entries(), want.Snapshot().Entries()) {
			t.Errorf("%s: %s summary differs from RunSharded's (%d vs %d entries)", name, stream, got.Snapshot().Size(), want.Snapshot().Size())
		}
		if got.Count() != want.Count() {
			t.Errorf("%s: %s count %d, RunSharded %d", name, stream, got.Count(), want.Count())
		}
	}
	sameSum := func(name, stream string, got, want *summary.Stream) {
		t.Helper()
		if math.Float64bits(got.Sum()) != math.Float64bits(want.Sum()) {
			t.Errorf("%s: %s sum %v, RunSharded %v", name, stream, got.Sum(), want.Sum())
		}
	}

	flat := map[int]*Result{0: reference(3, 0), 4: reference(3, 4)}
	for _, rec := range flat[0].Board.Records {
		if kept := rec.HonestKept + rec.PoisonKept; kept <= 3<<15 {
			t.Fatalf("round %d keeps %d values over 3 shards, want more than a 32,768-value chunk per shard", rec.Round, kept)
		}
	}
	for _, c := range []struct {
		name     string
		pipeline bool
		tighten  int
	}{{"plain", false, 0}, {"pipelined", true, 0}, {"focused", false, 4}} {
		ccfg := cfg
		ccfg.FocusTighten = c.tighten
		res, err := RunCluster(ClusterConfig{Config: ccfg, Transport: cluster.NewLoopback(3), Gen: gen, Pipeline: c.pipeline})
		if err != nil {
			t.Fatal(err)
		}
		want := flat[c.tighten]
		sameBoard(c.name, res, want)
		sameEntries(c.name, "received", res.Received, want.Received)
		sameSum(c.name, "received", res.Received, want.Received)
		sameEntries(c.name, "kept", res.Kept, want.Kept)
		sameSum(c.name, "kept", res.Kept, want.Kept)
	}

	res, err := RunCluster(ClusterConfig{Config: cfg, Transport: cluster.NewLoopback(2), Gen: gen, SubShards: 3})
	if err != nil {
		t.Fatal(err)
	}
	want := reference(6, 0)
	sameBoard("2x3", res, want)
	sameEntries("2x3", "received", res.Received, want.Received)
	if res.Kept.Count() != want.Kept.Count() {
		t.Errorf("2x3: kept count %d, RunSharded %d", res.Kept.Count(), want.Kept.Count())
	}
}

// Exact mode carries no Kept stream, so the summary-driven estimators
// must signal that with NaN rather than inventing a value.
func TestKeptEstimatorsExactModeNaN(t *testing.T) {
	cfg := baseConfig(t, 39)
	cfg.TrimOnBatch = true
	cfg.ExactQuantiles = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Kept != nil {
		t.Fatal("exact mode built a kept summary")
	}
	if !math.IsNaN(res.KeptMean()) || !math.IsNaN(res.KeptQuantile(0.5)) {
		t.Fatal("estimators must return NaN without a Kept stream")
	}
}

// RunClusterLDP must reject mechanisms whose mean estimate cannot be
// reduced from (sum, count) aggregates.
func TestRunClusterLDPRequiresSumEstimator(t *testing.T) {
	cfg := LDPShardedConfig{Shards: 2, Gen: &ShardGen{MasterSeed: 1}}
	cfg.LDPConfig = LDPConfig{
		Rounds: 1, Batch: 10,
		Inputs:    []float64{0.1, 0.2},
		Mechanism: nonSumMech{},
		Rng:       stats.NewRand(1),
	}
	static, err := trim.NewStatic("s", 0.9)
	if err != nil {
		t.Fatal(err)
	}
	adv, err := attack.NewPoint("p", 0.99)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Collector, cfg.Adversary = static, adv
	if _, err := RunShardedLDP(cfg); err == nil || !strings.Contains(err.Error(), "SumMeanEstimator") {
		t.Fatalf("err = %v, want SumMeanEstimator rejection", err)
	}
}

// nonSumMech is a minimal mechanism without MeanEstimateFromSum.
type nonSumMech struct{}

func (nonSumMech) Perturb(rng *rand.Rand, x float64) float64 { return x }
func (nonSumMech) OutputBounds() (float64, float64)          { return -1, 1 }
func (nonSumMech) MeanEstimate(reports []float64) float64    { return stats.Mean(reports) }
func (nonSumMech) Epsilon() float64                          { return 1 }
