// Command trimlab runs any of the paper's experiments from the command
// line and prints the same rows/series the paper reports, and hosts the
// distributed collector's processes.
//
// Usage:
//
//	trimlab -experiment fig4 [-scale quick|bench|paper] [-points N] [-seed S]
//	trimlab worker -listen :7101 [-seed S] [-rejoin] [-spill-dir D]
//	trimlab aggregator -listen :7201 -children host1:7101,host2:7101 [-rejoin] [-compress B] [-obs-addr :9301]
//	trimlab coordinator -workers host1:7101,host2:7101 [-seed S] [-pipeline] [-rounds N] [-batch N]
//	    [-subshards C] [-focus-tighten T] [-focus-width W]
//	    [-heartbeat D] [-hb-timeout D] [-rejoin] [-checkpoint-dir DIR] [-checkpoint-every K] [-resume]
//
// Experiments: table1, table2, table3, table4, fig4, fig5, fig6, fig7,
// fig8, fig9, variants, blackbox, distributed, fleet, pipeline, all.
//
// The coordinator/worker subcommands run the scalar collection game as a
// real multi-process cluster: start one `trimlab worker` per machine (or
// port), then point a `trimlab coordinator` at their addresses. The cluster
// runs the shard-local data plane (DESIGN.md §7): workers generate their
// own arrivals from seed streams derived off the coordinator's -seed, and
// round directives are O(1). After the game the coordinator replays it on
// the single-process sharded reference and verifies the multi-process
// board record for record — exiting non-zero on any divergence — and
// reports its per-round egress bytes.
//
// -pipeline turns on the overlapped round schedule (DESIGN.md §9): round
// r's classify broadcast carries round r+1's generator specs, so a
// steady-state round costs one RTT instead of two. The board is unchanged,
// which the verification checks.
//
// -subshards C splits each worker's generation into C per-core sub-shards
// drawn and summarized in parallel goroutines and merged locally, so a
// worker saturates its cores instead of one (DESIGN.md §12). The board
// equals the flat (workers · C)-shard reference, which the verification
// checks. -focus-tighten T (with optional -focus-width W) makes the
// summaries keep T× denser rank coverage around the trim threshold,
// spending the fixed summary budget where the game actually queries.
//
// The fleet flags drive the supervision runtime (DESIGN.md §8): -heartbeat
// starts background liveness probes over the game transport, -rejoin lets
// the coordinator re-admit a lost worker at a round boundary (a re-spawned
// `trimlab worker -rejoin` on the old address), -checkpoint-dir persists a
// full coordinator snapshot every -checkpoint-every rounds, and -resume
// restarts a killed coordinator from the latest snapshot — both re-join and
// resume reproduce the uninterrupted reference record for record outside
// the degraded window, which the verification checks.
//
// In the row game the kept rows live on the workers (DESIGN.md §14): the
// coordinator sees only per-coordinate center deltas and per-leaf pool
// totals each round. `trimlab worker -spill-dir D` backs that pool with
// segment files under D so it survives a kill — a re-spawned
// `-rejoin -spill-dir D` worker recovers it, and a coordinator -resume
// rolls every pool back to the snapshot's manifest before replaying.
//
// Every mode takes the same -seed flag (default 1, must be ≥ 1): the
// experiment mode uses it as the base RNG seed (repetition seeds are
// base + i), the coordinator as the master seed every shard and round
// stream derives from. The worker accepts it only for launch-script
// symmetry: a worker draws nothing of its own, its per-round seeds arrive
// derived inside the coordinator's directives.
//
// For wide fleets, interpose `trimlab aggregator` processes (DESIGN.md
// §13): each aggregator dials a group of workers (or deeper aggregators)
// as its -children and serves the merged subtree upstream, so the
// coordinator's -workers list names only the tree's top slots and its
// per-round merge stays O(fan-in) instead of O(fleet). The board is
// verified against the flat reference over the tree's total leaf count.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/agg"
	"repro/internal/cluster"
	"repro/internal/collect"
	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/game"
	"repro/internal/obs"
	"repro/internal/rowstore"
	"repro/internal/stats"
	"repro/internal/wire"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "worker":
			if err := workerMain(os.Args[2:]); err != nil {
				fatal(err)
			}
			return
		case "aggregator":
			if err := aggregatorMain(os.Args[2:]); err != nil {
				fatal(err)
			}
			return
		case "coordinator":
			if err := coordinatorMain(os.Args[2:]); err != nil {
				fatal(err)
			}
			return
		}
	}
	var (
		exp    = flag.String("experiment", "all", "experiment to run: table1..table4, fig4..fig9, variants, blackbox, distributed, fleet, pipeline, all")
		scale  = flag.String("scale", "quick", "effort: quick, bench, or paper")
		points = flag.Int("points", 3, "attack-ratio points per interval (fig4/fig5)")
		seed   = seedFlag(flag.CommandLine)
	)
	flag.Parse()
	if err := validateSeed(*seed); err != nil {
		fatal(err)
	}

	sc, err := scaleFor(*scale)
	if err != nil {
		fatal(err)
	}
	sc.Seed = *seed

	// The experiments in "all" order; each returns its result table, which
	// timed prints.
	exps := []struct {
		name string
		run  func() (printer, error)
	}{
		{"table1", func() (printer, error) {
			return experiments.TableI(game.UltimatumPayoffs{PBar: 100, TBar: 50, P: 3, T: 1})
		}},
		{"table2", func() (printer, error) { return experiments.TableII(sc.Seed, *scale == "paper") }},
		{"table3", func() (printer, error) { return experiments.TableIII(sc) }},
		{"table4", func() (printer, error) { return experiments.TableIV(0.9) }},
		{"fig4", func() (printer, error) { return experiments.Fig4(sc, *points) }},
		{"fig5", func() (printer, error) { return experiments.Fig5(sc, *points) }},
		{"fig6", func() (printer, error) { return experiments.Fig6(sc) }},
		{"fig7", func() (printer, error) { return experiments.Fig7(sc) }},
		{"fig8", func() (printer, error) { return experiments.Fig8(sc) }},
		{"fig9", func() (printer, error) {
			ratios, epsilons := fig9Grids(*scale)
			return experiments.Fig9(sc, ratios, epsilons)
		}},
		{"variants", func() (printer, error) { return experiments.Variants(sc) }},
		{"blackbox", func() (printer, error) { return experiments.BlackBox(sc) }},
		{"distributed", func() (printer, error) { return experiments.Distributed(sc, nil) }},
		{"fleet", func() (printer, error) { return experiments.FaultTolerance(sc, 0) }},
		{"pipeline", func() (printer, error) { return experiments.Pipelining(sc, nil, nil) }},
	}
	names := make([]string, len(exps))
	for i, e := range exps {
		names[i] = e.name
	}

	if *exp == "all" {
		for _, e := range exps {
			if err := timed(e.name, e.run); err != nil {
				fatal(err)
			}
			fmt.Println()
		}
		return
	}
	i := slices.Index(names, *exp)
	if i < 0 {
		fatal(fmt.Errorf("unknown experiment %q (want one of %v or all)", *exp, names))
	}
	if err := timed(*exp, exps[i].run); err != nil {
		fatal(err)
	}
}

func scaleFor(name string) (experiments.Scale, error) {
	switch name {
	case "quick":
		return experiments.Quick, nil
	case "bench":
		return experiments.Bench, nil
	case "paper":
		return experiments.Paper, nil
	}
	return experiments.Scale{}, fmt.Errorf("unknown scale %q (want quick, bench, or paper)", name)
}

// fig9Grids reduces the Fig 9 sweep outside paper scale: the full 9×9 grid
// with repetitions is the heaviest experiment in the suite.
func fig9Grids(scale string) (ratios, epsilons []float64) {
	if scale == "paper" {
		return nil, nil // package defaults: the full paper grids
	}
	return []float64{0.05, 0.2, 0.45}, []float64{1, 2, 3, 4, 5}
}

// printer is an experiment's result: every one prints its own table.
type printer interface{ Print(io.Writer) }

// timed runs one experiment between a banner and its wall-clock footer and
// prints its result table to stdout.
func timed(name string, run func() (printer, error)) error {
	start := obs.Now()
	fmt.Printf("=== %s ===\n", name)
	res, err := run()
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	res.Print(os.Stdout)
	fmt.Printf("--- %s done in %v\n", name, obs.Since(start).Round(time.Millisecond))
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "trimlab:", err)
	os.Exit(1)
}

// seedFlag registers the one -seed flag every trimlab mode shares; see the
// command doc for its meaning per mode. Default 1.
func seedFlag(fs *flag.FlagSet) *int64 {
	return fs.Int64("seed", 1, "RNG seed (≥ 1; base seed for experiments, game/master seed for the coordinator, informational for workers)")
}

// validateSeed enforces the shared contract: repetition seeds are
// base + i, so the base must be a positive integer.
func validateSeed(s int64) error {
	if s < 1 {
		return fmt.Errorf("-seed %d: must be ≥ 1", s)
	}
	return nil
}

// workerMain is the `trimlab worker` subcommand: serve one cluster worker
// until the coordinator sends the stop directive. With -rejoin the worker
// is a re-spawned replacement or an elastic game's growth slot: it accepts
// the coordinator's mid-game membership grant (Hello/Configure/Join)
// instead of refusing to be grafted into a running game.
func workerMain(args []string) error {
	fs := flag.NewFlagSet("worker", flag.ExitOnError)
	var (
		listen   = fs.String("listen", ":7101", "address to serve the worker RPC on")
		id       = fs.Int("id", 0, "worker id for log lines (shard order is set by the coordinator's -workers list)")
		rejoin   = fs.Bool("rejoin", false, "accept a mid-game join: a re-spawned replacement for a lost worker, or a growth slot an elastic game admits at its scheduled round")
		spillDir = fs.String("spill-dir", "", "directory for the file-backed kept-row pool (row game): kept rows spill to segment files instead of memory and survive a kill — pair with -rejoin so the re-spawned worker recovers its pool and the coordinator's -resume can roll it back")
		seed     = seedFlag(fs)
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := validateSeed(*seed); err != nil {
		return err
	}
	w := cluster.NewWorker(*id)
	mode := ""
	if *rejoin {
		w.AllowRejoin()
		mode = ", re-join enabled"
	}
	if *spillDir != "" {
		dir := *spillDir
		w.SetPoolOpener(func() (rowstore.Pool, error) {
			return rowstore.OpenSpill(dir, rowstore.SpillConfig{})
		})
		mode += fmt.Sprintf(", kept rows spill to %s", dir)
	}
	fmt.Printf("trimlab worker %d: serving on %s (seeds are derived by the coordinator; -seed is accepted for launch symmetry%s)\n", *id, *listen, mode)
	if err := cluster.ListenAndServe(*listen, w); err != nil {
		return err
	}
	fmt.Printf("trimlab worker %d: stopped by coordinator\n", *id)
	return nil
}

// aggregatorMain is the `trimlab aggregator` subcommand: one interior merge
// node of the aggregator tier (DESIGN.md §13). It dials its children —
// workers or deeper aggregators, address order = leaf order — merges their
// per-round reports, and serves the combined subtree report on -listen
// until the coordinator's stop directive arrives through the tree.
func aggregatorMain(args []string) error {
	fs := flag.NewFlagSet("aggregator", flag.ExitOnError)
	var (
		listen   = fs.String("listen", ":7201", "address to serve the aggregator RPC on")
		children = fs.String("children", "", "comma-separated child addresses (required; order = leaf order; workers or deeper aggregators)")
		id       = fs.Int("id", 0, "aggregator id for log lines")
		wait     = fs.Duration("wait", 10*time.Second, "how long to retry dialing children")
		rejoin   = fs.Bool("rejoin", false, "accept a mid-game re-join (re-spawned replacement for a lost aggregator over the same children)")
		compress = fs.Int("compress", 0, "recompression budget b: forward merged sketches of at most b+1 entries, adding at most 1/b rank error per level (0 = lossless; pair with the coordinator's -eps set to the per-level split)")
		obsAddr  = fs.String("obs-addr", "", "serve the node's observability endpoint on this address while it runs: /metrics (Prometheus text), /debug/pprof/")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *children == "" {
		return fmt.Errorf("aggregator: -children is required (e.g. -children host1:7101,host2:7101)")
	}
	addrs := strings.Split(*children, ",")
	fmt.Printf("trimlab aggregator %d: dialing %d children %v\n", *id, len(addrs), addrs)
	kids, err := agg.DialChildren(addrs, *wait)
	if err != nil {
		return err
	}
	node, err := agg.NewNode(*id, kids...)
	if err != nil {
		return err
	}
	mode := ""
	if *rejoin {
		node.AllowRejoin()
		mode = ", re-join enabled"
	}
	if *compress > 0 {
		node.SetCompress(*compress)
		mode += fmt.Sprintf(", recompressing to ≤ %d entries", *compress+1)
	}
	if *obsAddr != "" {
		met := obs.NewRegistry()
		node.SetMetrics(met)
		ep, err := obs.Serve(*obsAddr, met, nil)
		if err != nil {
			return fmt.Errorf("aggregator: -obs-addr: %w", err)
		}
		defer ep.Close()
		fmt.Printf("trimlab aggregator %d: observability on http://%s/ (/metrics, /debug/pprof/)\n", *id, ep.Addr)
	}
	fmt.Printf("trimlab aggregator %d: serving %d leaves on %s%s\n", *id, node.Leaves(), *listen, mode)
	if err := cluster.ListenAndServe(*listen, node); err != nil {
		return err
	}
	fmt.Printf("trimlab aggregator %d: stopped by coordinator\n", *id)
	return nil
}

// coordinatorMain is the `trimlab coordinator` subcommand: run the scalar
// collection game across TCP workers, then verify it against the
// single-process shard-local reference record for record.
func coordinatorMain(args []string) error {
	fs := flag.NewFlagSet("coordinator", flag.ExitOnError)
	var (
		workers   = fs.String("workers", "", "comma-separated worker addresses (required; order = shard order)")
		rounds    = fs.Int("rounds", 20, "game rounds")
		batch     = fs.Int("batch", 20000, "honest arrivals per round")
		ratio     = fs.Float64("ratio", 0.2, "attack ratio")
		seed      = seedFlag(fs)
		pipeline  = fs.Bool("pipeline", false, "overlapped round schedule: piggyback round r+1's generation onto round r's classify broadcast — one RTT per round")
		subshards = fs.Int("subshards", 1, "per-core sub-shards per worker: each worker generates and summarizes C sub-shards in parallel goroutines and merges locally; the board equals the flat workers x C reference")
		focusT    = fs.Int("focus-tighten", 0, "adaptive summary focus: keep Tx denser rank coverage around the trim threshold (0/1 = off)")
		focusW    = fs.Float64("focus-width", 0, "half-width of the focus rank window (0 = default ±0.05)")
		eps       = fs.Float64("eps", 0, "summary rank-error budget (0 = package default)")
		wait      = fs.Duration("wait", 10*time.Second, "how long to retry dialing workers")
		heartbeat = fs.Duration("heartbeat", 0, "fleet liveness-probe interval (0 disables the background monitor)")
		hbTimeout = fs.Duration("hb-timeout", 0, "how long a worker may go uncontacted before a round-boundary drop (0 = 4x heartbeat)")
		rejoin    = fs.Bool("rejoin", false, "fleet supervision: re-admit lost workers at round boundaries (re-spawn them with `trimlab worker -rejoin`)")
		ckDir     = fs.String("checkpoint-dir", "", "persist a coordinator snapshot every -checkpoint-every rounds into this directory")
		ckEvery   = fs.Int("checkpoint-every", 5, "rounds between checkpoints")
		resume    = fs.Bool("resume", false, "resume the game from the latest snapshot in -checkpoint-dir")
		obsAddr   = fs.String("obs-addr", "", "serve the observability endpoint on this address while the game runs: /metrics (Prometheus text), /events (structured event ring, NDJSON), /debug/pprof/")
		obsEvents = fs.String("obs-events", "", "append every structured event to this file as JSON lines")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := validateSeed(*seed); err != nil {
		return err
	}
	addrs := strings.Split(*workers, ",")
	if *workers == "" || len(addrs) == 0 {
		return fmt.Errorf("coordinator: -workers is required (e.g. -workers host1:7101,host2:7101)")
	}
	if *resume && *ckDir == "" {
		return fmt.Errorf("coordinator: -resume needs -checkpoint-dir")
	}

	cfg := func() (collect.Config, error) {
		ref := stats.NormalSlice(stats.NewRand(*seed), 5000, 0, 1)
		sch, err := experiments.NewScheme(experiments.Baseline09, 0.9, 0.1)
		if err != nil {
			return collect.Config{}, err
		}
		return collect.Config{
			Rounds: *rounds, Batch: *batch, AttackRatio: *ratio,
			Reference: ref,
			Collector: sch.Collector, Adversary: sch.Adversary,
			TrimOnBatch:    true,
			SummaryEpsilon: *eps,
			FocusTighten:   *focusT,
			FocusWidth:     *focusW,
		}, nil
	}

	logf := func(format string, a ...any) {
		fmt.Fprintf(os.Stderr, "trimlab coordinator: "+format+"\n", a...)
	}

	// Observability is always collected (the handles are cheap and the
	// instrumentation is provably side-effect-free); -obs-addr only decides
	// whether it is additionally served over HTTP while the game runs.
	met := obs.NewRegistry()
	ring := obs.NewRing(256)
	sinks := []obs.Sink{obs.PrintfSink(logf), ring.Sink()}
	if *obsEvents != "" {
		f, err := os.OpenFile(*obsEvents, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("coordinator: -obs-events: %w", err)
		}
		defer f.Close()
		sinks = append(sinks, obs.JSONL(f))
	}
	olog := obs.NewLogger(sinks...)
	if *obsAddr != "" {
		ep, err := obs.Serve(*obsAddr, met, ring)
		if err != nil {
			return fmt.Errorf("coordinator: -obs-addr: %w", err)
		}
		defer ep.Close()
		fmt.Printf("trimlab coordinator: observability on http://%s/ (/metrics, /events, /debug/pprof/)\n", ep.Addr)
	}

	var fcfg *fleet.Config
	if *heartbeat > 0 || *rejoin {
		fcfg = &fleet.Config{Heartbeat: *heartbeat, Timeout: *hbTimeout, Rejoin: *rejoin, Log: olog}
	}
	var ck *fleet.Checkpointer
	if *ckDir != "" {
		var err error
		if ck, err = fleet.NewCheckpointer(*ckDir, *ckEvery); err != nil {
			return err
		}
	}
	var snap *wire.Snapshot
	if *resume {
		var path string
		var err error
		if snap, path, err = fleet.LoadLatest(*ckDir); err != nil {
			return err
		}
		fmt.Printf("trimlab coordinator: resuming from %s (round %d of %d)\n", path, snap.NextRound, *rounds)
	}

	fmt.Printf("trimlab coordinator: dialing %d workers %v\n", len(addrs), addrs)
	tr, err := cluster.Dial(addrs, *wait)
	if err != nil {
		return err
	}
	ccfg, err := cfg()
	if err != nil {
		return err
	}
	gen := &collect.ShardGen{MasterSeed: *seed}
	start := obs.Now()
	clustered, err := collect.RunCluster(collect.ClusterConfig{
		Config:     ccfg,
		Transport:  tr,
		Gen:        gen,
		SubShards:  *subshards,
		Pipeline:   *pipeline,
		Log:        olog,
		Metrics:    met,
		Fleet:      fcfg,
		Checkpoint: ck,
		Resume:     snap,
	})
	if err != nil {
		return err
	}
	elapsed := obs.Since(start).Round(time.Millisecond)

	fmt.Printf("cluster game: %d rounds x batch %d over %d workers in %v (%d shards lost)\n",
		*rounds, *batch, len(addrs), elapsed, clustered.LostShards)
	fmt.Printf("  poison retained %.5f, honest lost %.5f, kept mean %.4f, kept p99 %.4f\n",
		clustered.Board.PoisonRetention(), clustered.Board.HonestLoss(),
		clustered.KeptMean(), clustered.KeptQuantile(0.99))
	fmt.Printf("  coordinator egress: %d B total, %d B configure, %.0f B/round\n",
		clustered.EgressBytes, clustered.EgressConfigBytes,
		float64(clustered.EgressBytes-clustered.EgressConfigBytes)/float64(*rounds))
	fmt.Printf("  coordinator ingress: %d B total, %.0f B/round\n",
		clustered.IngressBytes, float64(clustered.IngressBytes)/float64(*rounds))
	tm := clustered.Timing
	fmt.Printf("  phase timing: generate %v, classify %v, configure %v, admission %v — %v/round over %d rounds\n",
		tm.Generate.Round(time.Millisecond),
		tm.Classify.Round(time.Millisecond), tm.Configure.Round(time.Millisecond),
		tm.Admission.Round(time.Millisecond), tm.PerRound().Round(time.Microsecond), tm.Rounds)
	if clustered.TreeHeight > 0 {
		fmt.Printf("  merge topology: %d leaves behind %d slots, height %d; coordinator merge %v (%v/round)\n",
			clustered.TreeLeaves, len(addrs), clustered.TreeHeight,
			tm.Merge.Round(time.Millisecond),
			(tm.Merge / time.Duration(max(tm.Rounds, 1))).Round(time.Microsecond))
	} else {
		fmt.Printf("  coordinator merge: %v total, %v/round\n",
			tm.Merge.Round(time.Millisecond),
			(tm.Merge / time.Duration(max(tm.Rounds, 1))).Round(time.Microsecond))
	}
	for _, l := range clustered.Losses {
		fmt.Printf("  shard loss: round %d (%s): worker %d, honest range [%d, %d)\n",
			l.Round, l.Phase, l.Worker, l.Lo, l.Hi)
	}
	for _, ev := range clustered.FleetEvents {
		fmt.Printf("  fleet: epoch %d: %s worker %d, round %d\n", ev.Epoch, ev.Kind, ev.Worker, ev.Round)
	}
	printObsSummary(met, len(addrs))

	// The flat reference layout: the tree's total leaf count (learned by the
	// coordinator from the replies), each leaf running C sub-shards in C
	// flat slots. A flat fleet that ended short of workers reports
	// end-of-run leaves below len(addrs); the launch width is the reference
	// there. A TREE fleet that ended short of leaves has no wire-visible
	// launch width — verification then runs over the end-of-run width and
	// reports the pre-loss rounds as divergence, which is the loud failure
	// an operator should see.
	flat := clustered.TreeLeaves
	if flat < len(addrs) {
		flat = len(addrs)
	}
	if *subshards > 1 {
		flat *= *subshards
	}
	return verifyShardLocal(cfg, gen, clustered, flat, *rounds, *rejoin)
}

// printObsSummary digests the run's metrics registry into the end-of-run
// report: per-phase fan-out latency quantiles from the
// trimlab_phase_seconds histograms (with the network share where workers
// reported busy time), and a straggler ranking of the workers by mean
// busy time per answered call.
func printObsSummary(met *obs.Registry, workers int) {
	phases := []string{"configure", "join", "generate", "classify", "classify+generate", "admission"}
	header := false
	for _, ph := range phases {
		h := met.Histogram("trimlab_phase_seconds", obs.TimeBuckets, "phase", ph)
		if h.Count() == 0 {
			continue
		}
		if !header {
			fmt.Println("  phase latency (coordinator fan-out, p50/p99 from fixed-bucket histograms):")
			header = true
		}
		line := fmt.Sprintf("    %-18s n=%-4d p50 %-9v p99 %v",
			ph, h.Count(), quantileDuration(h, 0.5), quantileDuration(h, 0.99))
		if net := met.Histogram("trimlab_phase_net_seconds", obs.TimeBuckets, "phase", ph); net.Count() > 0 {
			line += fmt.Sprintf("  (net p50 %v)", quantileDuration(net, 0.5))
		}
		fmt.Println(line)
	}

	// Aggregator-tier digest (DESIGN.md §13): per-level merge latency up the
	// tree (level 1 is just above the leaves) — levels are contiguous, so
	// the first silent level ends the walk.
	for lvl := 1; ; lvl++ {
		h := met.Histogram("trimlab_agg_merge_seconds", obs.TimeBuckets, "level", strconv.Itoa(lvl))
		if h.Count() == 0 {
			break
		}
		if lvl == 1 {
			fmt.Printf("  aggregator tier: %.0f leaves, height %.0f\n",
				met.Gauge("trimlab_tree_leaves").Value(), met.Gauge("trimlab_tree_height").Value())
		}
		fmt.Printf("    level %d merge      n=%-4d p50 %-9v p99 %v\n",
			lvl, h.Count(), quantileDuration(h, 0.5), quantileDuration(h, 0.99))
	}

	// Summary ingest digest (DESIGN.md §12): the run-long exact point count
	// the worker sketches absorbed, and the aggregate throughput over the
	// workers' summarize busy time.
	if pts := met.Counter("trimlab_ingest_points_total").Value(); pts > 0 {
		var sumNanos int64
		for w := 0; w < workers; w++ {
			sumNanos += met.Counter("trimlab_worker_phase_nanos_total",
				"phase", "summarize", "worker", strconv.Itoa(w)).Value()
		}
		line := fmt.Sprintf("  summary ingest: %d points", pts)
		if sumNanos > 0 {
			line += fmt.Sprintf(" at %.2f Mpts/s of worker summarize time",
				float64(pts)*1e3/float64(sumNanos))
		}
		fmt.Println(line)
	}

	type row struct {
		worker int
		calls  int64
		busy   time.Duration
	}
	var rows []row
	for w := 0; w < workers; w++ {
		ws := strconv.Itoa(w)
		calls := met.Counter("trimlab_worker_calls_total", "worker", ws).Value()
		if calls == 0 {
			continue
		}
		var busy int64
		for _, ph := range []string{"generate", "summarize", "classify"} {
			busy += met.Counter("trimlab_worker_phase_nanos_total", "phase", ph, "worker", ws).Value()
		}
		rows = append(rows, row{worker: w, calls: calls, busy: time.Duration(busy)})
	}
	if len(rows) == 0 {
		return
	}
	sort.Slice(rows, func(i, j int) bool {
		mi := rows[i].busy / time.Duration(rows[i].calls)
		mj := rows[j].busy / time.Duration(rows[j].calls)
		if mi != mj {
			return mi > mj
		}
		return rows[i].worker < rows[j].worker
	})
	fmt.Println("  worker busy time (straggler ranking, busiest mean first):")
	for _, r := range rows {
		mean := r.busy / time.Duration(r.calls)
		fmt.Printf("    worker %d: %v over %d calls (%v/call)\n",
			r.worker, r.busy.Round(time.Microsecond), r.calls, mean.Round(time.Microsecond))
	}
}

// quantileDuration rounds a histogram quantile (seconds) to a printable
// duration.
func quantileDuration(h *obs.Histogram, q float64) time.Duration {
	return time.Duration(h.Quantile(q) * float64(time.Second)).Round(time.Microsecond)
}

// verifyShardLocal checks a cluster run against the single-process
// shard-local reference record for record, skipping only the degraded
// window of a supervised run — the rounds from the first shard loss up to
// (but excluding) the round the membership became whole again. With -rejoin
// a run that never became whole again fails the check: the operator asked
// for recovery and did not get it.
func verifyShardLocal(cfg func() (collect.Config, error), gen *collect.ShardGen, clustered *collect.Result, workers, rounds int, rejoin bool) error {
	rcfg, err := cfg()
	if err != nil {
		return err
	}
	reference, err := collect.RunSharded(collect.ShardedConfig{
		Config: rcfg, Shards: workers, Gen: gen,
	})
	if err != nil {
		return err
	}
	if len(clustered.Losses) == 0 {
		for i := range reference.Board.Records {
			if !reference.Board.Records[i].Equal(clustered.Board.Records[i]) {
				return fmt.Errorf("coordinator: round %d diverged from the shard-local reference:\nreference %+v\ncluster   %+v",
					i+1, reference.Board.Records[i], clustered.Board.Records[i])
			}
		}
		fmt.Println("board matches the single-process shard-local reference record for record: OK")
		return nil
	}
	if rejoin && clustered.WholeSince == 0 {
		return fmt.Errorf("coordinator: worker lost and never re-admitted (re-join requested): losses %+v", clustered.Losses)
	}
	firstLoss := clustered.Losses[0].Round
	verified := 0
	for i := range reference.Board.Records {
		r := i + 1
		if r >= firstLoss && (clustered.WholeSince == 0 || r < clustered.WholeSince) {
			continue // degraded window: fewer live shards played this round
		}
		if !reference.Board.Records[i].Equal(clustered.Board.Records[i]) {
			return fmt.Errorf("coordinator: round %d diverged from the shard-local reference outside the degraded window:\nreference %+v\ncluster   %+v",
				r, reference.Board.Records[i], clustered.Board.Records[i])
		}
		verified++
	}
	if clustered.WholeSince > 0 {
		fmt.Printf("pre-loss and post-recovery records (%d of %d, degraded window round %d-%d excluded) match the shard-local reference record for record: OK\n",
			verified, rounds, firstLoss, clustered.WholeSince-1)
	} else {
		fmt.Printf("pre-loss records (%d of %d) match the shard-local reference record for record: OK (fleet ended degraded)\n",
			verified, rounds)
	}
	return nil
}
