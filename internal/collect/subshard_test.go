package collect

import (
	"fmt"
	"math"
	"net"
	"testing"
	"time"

	"repro/internal/attack"
	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/ldp"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/trim"
)

// The acceptance bar of per-core sub-sharding: a cluster of W workers each
// running C parallel sub-shards must reproduce the flat W·C-shard reference
// run record for record — sub-shard c of worker i draws from the same seed
// cell as flat shard i·C+c, the worker merges its sub summaries in sub
// order, and the coordinator's merge is associative, so the board cannot
// tell the two layouts apart. Covered both below and above the summary's
// chunked-ingest threshold, plain and pipelined.
func TestSubShardClusterEqualsFlatShardedReference(t *testing.T) {
	const workers, subs = 2, 2
	for _, tc := range []struct {
		name     string
		batch    int
		rounds   int
		pipeline bool
	}{
		{"itemwise-plain", 500, 10, false},
		{"itemwise-pipelined", 500, 10, true},
		{"chunked-plain", 5000, 3, false},
		{"chunked-pipelined", 5000, 3, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mk := func() Config {
				cfg := shardLocalConfig(t)
				cfg.Batch = tc.batch
				cfg.Rounds = tc.rounds
				return cfg
			}
			gen := &ShardGen{MasterSeed: 81}
			reference, err := RunSharded(ShardedConfig{
				Config: mk(), Shards: workers * subs, Gen: gen,
			})
			if err != nil {
				t.Fatal(err)
			}
			clustered, err := RunCluster(ClusterConfig{
				Config:    mk(),
				Transport: cluster.NewLoopback(workers),
				Gen:       gen,
				SubShards: subs,
				Pipeline:  tc.pipeline,
			})
			if err != nil {
				t.Fatal(err)
			}
			if got, want := len(clustered.Board.Records), len(reference.Board.Records); got != want {
				t.Fatalf("rounds %d vs %d", got, want)
			}
			for i := range reference.Board.Records {
				if !reference.Board.Records[i].Equal(clustered.Board.Records[i]) {
					t.Errorf("round %d diverged:\nflat %d shards %+v\n%d workers x %d subs %+v",
						i+1, workers*subs, reference.Board.Records[i],
						workers, subs, clustered.Board.Records[i])
				}
			}
		})
	}
}

// SubShards 0 and 1 are the same layout as no sub-sharding at all: the
// directives carry one cell each and the board matches the flat reference at
// the worker count.
func TestSubShardOneIsLegacyLayout(t *testing.T) {
	gen := &ShardGen{MasterSeed: 82}
	reference, err := RunSharded(ShardedConfig{
		Config: shardLocalConfig(t), Shards: 2, Gen: gen,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, subs := range []int{0, 1} {
		clustered, err := RunCluster(ClusterConfig{
			Config:    shardLocalConfig(t),
			Transport: cluster.NewLoopback(2),
			Gen:       gen,
			SubShards: subs,
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := range reference.Board.Records {
			if !reference.Board.Records[i].Equal(clustered.Board.Records[i]) {
				t.Errorf("SubShards=%d round %d diverged from flat 2-shard reference", subs, i+1)
			}
		}
	}
}

// Adaptive focus: the cluster and the single-process sharded reference
// tighten their summaries around the same anchor schedule (round r anchors
// on round r−1's threshold percentile), so a focused cluster run — plain or
// pipelined, with or without sub-shards — still reproduces the focused flat
// reference record for record.
func TestFocusClusterEqualsShardedReference(t *testing.T) {
	mk := func() Config {
		cfg := shardLocalConfig(t)
		cfg.Batch = 5000 // above the chunked-ingest threshold, so focus shapes compression
		cfg.Rounds = 4
		cfg.FocusTighten = 4
		return cfg
	}
	gen := &ShardGen{MasterSeed: 83}
	reference, err := RunSharded(ShardedConfig{Config: mk(), Shards: 4, Gen: gen})
	if err != nil {
		t.Fatal(err)
	}
	for _, pipeline := range []bool{false, true} {
		clustered, err := RunCluster(ClusterConfig{
			Config:    mk(),
			Transport: cluster.NewLoopback(2),
			Gen:       gen,
			SubShards: 2,
			Pipeline:  pipeline,
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := range reference.Board.Records {
			if !reference.Board.Records[i].Equal(clustered.Board.Records[i]) {
				t.Errorf("pipeline=%v round %d diverged:\nreference %+v\ncluster   %+v",
					pipeline, i+1, reference.Board.Records[i], clustered.Board.Records[i])
			}
		}
		for _, rec := range clustered.Board.Records {
			if math.IsNaN(rec.Quality) || math.IsInf(rec.Quality, 0) {
				t.Fatalf("focused round %d quality %v", rec.Round, rec.Quality)
			}
		}
	}
}

// Sub-shard specs and focus directives cross real TCP sockets like any
// other wire field: a pipelined, focused, sub-sharded cluster over TCP
// still reproduces the flat focused reference record for record.
func TestSubShardFocusOverTCPMatchesReference(t *testing.T) {
	const workers, subs = 2, 2
	mk := func() Config {
		cfg := shardLocalConfig(t)
		cfg.FocusTighten = 4
		return cfg
	}
	gen := &ShardGen{MasterSeed: 89}
	reference, err := RunSharded(ShardedConfig{
		Config: mk(), Shards: workers * subs, Gen: gen,
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
	clustered, err := RunCluster(ClusterConfig{
		Config:    mk(),
		Transport: tr,
		Gen:       gen,
		SubShards: subs,
		Pipeline:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range reference.Board.Records {
		if !reference.Board.Records[i].Equal(clustered.Board.Records[i]) {
			t.Errorf("round %d diverged over TCP:\nreference %+v\ncluster   %+v",
				i+1, reference.Board.Records[i], clustered.Board.Records[i])
		}
	}
}

func subShardLDPConfig(t *testing.T) LDPConfig {
	t.Helper()
	inputs := make([]float64, 3000)
	rng := stats.NewRand(84)
	for i := range inputs {
		inputs[i] = stats.Clamp(rng.NormFloat64()*0.3, -1, 1)
	}
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
		Rounds: 6, Batch: 400, AttackRatio: 0.2,
		Inputs: inputs, Mechanism: mech,
		Collector: static, Adversary: adv,
		TrimOnBatch: true,
	}
}

// The LDP game's board is layout-blind too: 2 workers × 2 sub-shards
// reproduces the flat 4-shard run's records. (The mean estimates are NOT
// compared — the kept-sum reduction folds worker subtotals, so its float
// association is layout-dependent even though every record matches.)
func TestSubShardLDPEqualsFlat(t *testing.T) {
	gen := &ShardGen{MasterSeed: 85}
	flat, err := RunShardedLDP(LDPShardedConfig{
		LDPConfig: subShardLDPConfig(t), Shards: 4, Gen: gen,
	})
	if err != nil {
		t.Fatal(err)
	}
	nested, err := RunShardedLDP(LDPShardedConfig{
		LDPConfig: subShardLDPConfig(t), Shards: 2, SubShards: 2, Gen: gen,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(nested.Board.Records), len(flat.Board.Records); got != want {
		t.Fatalf("rounds %d vs %d", got, want)
	}
	for i := range flat.Board.Records {
		if !flat.Board.Records[i].Equal(nested.Board.Records[i]) {
			t.Errorf("round %d diverged:\nflat   %+v\nnested %+v",
				i+1, flat.Board.Records[i], nested.Board.Records[i])
		}
	}
	if math.Abs(flat.MeanEstimate-nested.MeanEstimate) > 1e-9 {
		t.Errorf("mean estimates %v vs %v drifted beyond association noise",
			flat.MeanEstimate, nested.MeanEstimate)
	}
}

// The row game under sub-shards: deterministic given the master seed, the
// kept-pool accounting stays exact, and 2 workers × 2 sub-shards reproduce
// the flat 4-shard reference record for record — labeled or not (an
// unlabeled dataset draws nil labels in every cell).
func TestSubShardRowsDeterministic(t *testing.T) {
	for _, labeled := range []bool{true, false} {
		t.Run(fmt.Sprintf("labeled=%v", labeled), func(t *testing.T) {
			mk := func() RowConfig {
				d := dataset.VehicleN(stats.NewRand(86), 400)
				if !labeled {
					d.Y = nil
				}
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
			run := func(shards, subs int) *RowResult {
				res, err := RunShardedRows(RowShardedConfig{
					RowConfig: mk(), Shards: shards, SubShards: subs,
					Gen: &ShardGen{MasterSeed: 87},
				})
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			local, again, flat := run(2, 2), run(2, 2), run(4, 1)
			for i := range local.Board.Records {
				if local.Board.Records[i] != again.Board.Records[i] {
					t.Fatalf("round %d diverged between identical master seeds", i+1)
				}
				if !flat.Board.Records[i].Equal(local.Board.Records[i]) {
					t.Errorf("round %d diverged:\nflat 4 shards   %+v\n2 workers x 2 subs %+v",
						i+1, flat.Board.Records[i], local.Board.Records[i])
				}
			}
			var kept int
			for _, rec := range local.Board.Records {
				kept += rec.HonestKept + rec.PoisonKept
			}
			if got := local.Kept.Len(); got != kept {
				t.Errorf("kept dataset %d rows, accounting says %d", got, kept)
			}
			if labeled && len(local.Kept.Y) != local.Kept.Len() {
				t.Errorf("%d labels for %d kept rows", len(local.Kept.Y), local.Kept.Len())
			}
			if !labeled && local.Kept.Y != nil {
				t.Errorf("unlabeled run collected %d labels", len(local.Kept.Y))
			}
		})
	}
}

// The scale knobs are validated uniformly across the three cluster games:
// sub-sharding needs the shard-local data plane, and the knobs reject
// nonsense values.
func TestScaleKnobValidation(t *testing.T) {
	gen := &ShardGen{MasterSeed: 1}
	scalar := func(mutate func(*ClusterConfig)) error {
		cfg := ClusterConfig{
			Config:    shardLocalConfig(t),
			Transport: cluster.NewLoopback(2),
			Gen:       gen,
		}
		mutate(&cfg)
		_, err := RunCluster(cfg)
		return err
	}
	cases := map[string]func(*ClusterConfig){
		"subshards without gen": func(c *ClusterConfig) { c.Gen = nil; c.SubShards = 2 },
		"negative subshards":    func(c *ClusterConfig) { c.SubShards = -1 },
		"negative tighten":      func(c *ClusterConfig) { c.FocusTighten = -1 },
		"negative width":        func(c *ClusterConfig) { c.FocusWidth = -0.1 },
		"nan width":             func(c *ClusterConfig) { c.FocusWidth = math.NaN() },
	}
	for name, mutate := range cases {
		if err := scalar(mutate); err == nil {
			t.Errorf("scalar %s: accepted", name)
		}
	}
	// Valid shapes pass: sub-sharding and focus knobs together.
	if err := scalar(func(c *ClusterConfig) { c.SubShards = 4; c.FocusTighten = 2 }); err != nil {
		t.Errorf("valid scalar knobs rejected: %v", err)
	}
	if _, err := RunShardedLDP(LDPShardedConfig{
		LDPConfig: subShardLDPConfig(t), Shards: 2, SubShards: 2, Gen: nil,
	}); err == nil {
		t.Error("LDP sub-shards without gen: accepted")
	}
	rows := RowShardedConfig{
		RowConfig: RowConfig{}, Shards: 2, SubShards: 2,
	}
	if _, err := RunShardedRows(rows); err == nil {
		t.Error("rows sub-shards without gen: accepted")
	}
	// Both sharded wrappers need at least one shard.
	for _, shards := range []int{0, -1} {
		if _, err := RunShardedLDP(LDPShardedConfig{LDPConfig: subShardLDPConfig(t), Shards: shards, Gen: gen}); err == nil {
			t.Errorf("LDP shards %d: accepted", shards)
		}
		if _, err := RunShardedRows(RowShardedConfig{RowConfig: rowsPipelineConfig(t, 40), Shards: shards, Gen: gen}); err == nil {
			t.Errorf("rows shards %d: accepted", shards)
		}
	}
}

// Ingest accounting: every summarize-bearing reply carries the exact point
// count its sketches absorbed, so the run-long counter equals
// rounds × (batch + poison) and the per-worker counters partition it.
func TestIngestPointsCounter(t *testing.T) {
	met := obs.NewRegistry()
	cfg := shardLocalConfig(t)
	if _, err := RunCluster(ClusterConfig{
		Config:    cfg,
		Transport: cluster.NewLoopback(2),
		Gen:       &ShardGen{MasterSeed: 88},
		SubShards: 2,
		Metrics:   met,
	}); err != nil {
		t.Fatal(err)
	}
	poison := int(math.Round(cfg.AttackRatio * float64(cfg.Batch)))
	want := int64(cfg.Rounds * (cfg.Batch + poison))
	if got := met.Counter("trimlab_ingest_points_total").Value(); got != want {
		t.Errorf("trimlab_ingest_points_total = %d, want %d", got, want)
	}
	var perWorker int64
	for _, w := range []string{"0", "1"} {
		perWorker += met.Counter("trimlab_worker_ingest_points_total", "worker", w).Value()
	}
	if perWorker != want {
		t.Errorf("per-worker ingest counters sum to %d, want %d", perWorker, want)
	}
}
