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
	"repro/internal/fleet"
	"repro/internal/ldp"
	"repro/internal/stats"
	"repro/internal/trim"
	"repro/internal/wire"
)

// rejoinPattern drives one deterministic kill/re-join schedule through a
// run's OnRound hook: fail after round failAfter is posted, respawn after
// round respawnAfter is posted (so the supervisor re-admits the slot at the
// next round boundary).
func rejoinPattern(failAfter, respawnAfter int, fail, respawn func()) func(RoundRecord) {
	rounds := 0
	return func(RoundRecord) {
		rounds++
		if rounds == failAfter {
			fail()
		}
		if rounds == respawnAfter {
			respawn()
		}
	}
}

// The acceptance bar of the fleet runtime: a shard-local cluster that loses
// a worker and re-admits it must match the uninterrupted shard-local
// reference record for record — before the loss and again from the first
// round the membership is whole.
func TestClusterRejoinMatchesReferenceLoopback(t *testing.T) {
	const workers = 3
	const failAfter, respawnAfter = 3, 5
	gen := &ShardGen{MasterSeed: 70}

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
		Fleet:     &fleet.Config{Rejoin: true},
	}
	cfg.OnRound = rejoinPattern(failAfter, respawnAfter,
		func() { lb.Fail(1) }, func() { lb.Respawn(1) })
	res, err := RunCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}

	if res.LostShards != 1 || len(res.Losses) != 1 {
		t.Fatalf("LostShards %d, Losses %+v", res.LostShards, res.Losses)
	}
	loss := res.Losses[0]
	lo, hi := shardBounds(cfg.Batch, workers, 1)
	if loss.Round != failAfter+1 || loss.Worker != 1 || loss.Phase != "generate" ||
		loss.Lo != lo || loss.Hi != hi {
		t.Fatalf("loss = %+v, want round %d worker 1 generate [%d, %d)", loss, failAfter+1, lo, hi)
	}
	if len(res.FleetEvents) != 2 {
		t.Fatalf("fleet events = %+v", res.FleetEvents)
	}
	drop, admit := res.FleetEvents[0], res.FleetEvents[1]
	if drop.Kind != fleet.EventDrop || drop.Worker != 1 || drop.Round != failAfter+1 || drop.Epoch != 1 {
		t.Fatalf("drop event = %+v", drop)
	}
	if admit.Kind != fleet.EventAdmit || admit.Worker != 1 || admit.Round != respawnAfter+1 || admit.Epoch != 2 {
		t.Fatalf("admit event = %+v", admit)
	}
	if res.WholeSince != respawnAfter+1 {
		t.Fatalf("WholeSince = %d, want %d", res.WholeSince, respawnAfter+1)
	}

	// Pre-loss rounds match the reference; the failure round's tallies run
	// short; post-recovery rounds match again, record for record.
	for i := 0; i < failAfter; i++ {
		if !reference.Board.Records[i].Equal(res.Board.Records[i]) {
			t.Errorf("pre-loss round %d diverged:\nreference %+v\ncluster   %+v",
				i+1, reference.Board.Records[i], res.Board.Records[i])
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
}

// restartableTCPWorker serves a worker over real sockets, can be killed
// (listener and connections torn down, like a crashed process) and
// restarted on the same address as a fresh re-join-capable worker — the
// in-process double of `kill -9` plus `trimlab worker -rejoin`. Partition/
// Reattach model the transient-network case instead: the connections die
// but the worker object (and its game state) survives, and comes back
// WITHOUT the re-join flag.
type restartableTCPWorker struct {
	t      *testing.T
	id     int
	addr   string
	worker *cluster.Worker

	kill func()
}

func startRestartableTCPWorker(t *testing.T, id int) *restartableTCPWorker {
	t.Helper()
	w := &restartableTCPWorker{t: t, id: id}
	w.serveWorker("127.0.0.1:0", cluster.NewWorker(id))
	return w
}

func (w *restartableTCPWorker) serveWorker(addr string, worker *cluster.Worker) {
	w.t.Helper()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		w.t.Fatal(err)
	}
	w.addr = ln.Addr().String()
	w.worker = worker
	var mu sync.Mutex
	var conns []net.Conn
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, conn)
			mu.Unlock()
			go cluster.ServeConn(conn, worker)
		}
	}()
	w.kill = func() {
		ln.Close()
		<-done
		mu.Lock()
		defer mu.Unlock()
		for _, c := range conns {
			c.Close()
		}
	}
	w.t.Cleanup(w.kill)
}

// Kill tears the worker down; Restart brings a fresh one up on the same
// address with re-join allowed. Partition tears only the network down;
// Reattach brings the SAME worker back without the re-join flag.
func (w *restartableTCPWorker) Kill() { w.kill() }
func (w *restartableTCPWorker) Restart() {
	fresh := cluster.NewWorker(w.id)
	fresh.AllowRejoin()
	w.serveWorker(w.addr, fresh)
}
func (w *restartableTCPWorker) Partition() { w.kill() }
func (w *restartableTCPWorker) Reattach()  { w.serveWorker(w.addr, w.worker) }

// A worker killed over TCP mid-game and re-spawned on its old address must
// be re-admitted through the transport Revive (re-dial) path, and the run
// must match both the loopback run with the identical failure pattern and
// the uninterrupted reference once whole — the transport cannot influence
// the supervision semantics.
func TestClusterRejoinMatchesReferenceTCP(t *testing.T) {
	const workers = 3
	const failAfter, respawnAfter = 3, 5
	gen := &ShardGen{MasterSeed: 70}

	ws := make([]*restartableTCPWorker, workers)
	addrs := make([]string, workers)
	for i := range ws {
		ws[i] = startRestartableTCPWorker(t, i)
		addrs[i] = ws[i].addr
	}
	tr, err := cluster.Dial(addrs, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	cfg := ClusterConfig{
		Config:    shardLocalConfig(t),
		Transport: tr,
		Gen:       gen,
		Fleet:     &fleet.Config{Rejoin: true},
	}
	cfg.OnRound = rejoinPattern(failAfter, respawnAfter,
		func() { ws[1].Kill() }, func() { ws[1].Restart() })

	done := make(chan struct{})
	var overTCP *Result
	go func() {
		defer close(done)
		overTCP, err = RunCluster(cfg)
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("cluster run hung across kill and re-join")
	}
	if err != nil {
		t.Fatal(err)
	}

	lb := cluster.NewLoopback(workers)
	lcfg := ClusterConfig{
		Config:    shardLocalConfig(t),
		Transport: lb,
		Gen:       gen,
		Fleet:     &fleet.Config{Rejoin: true},
	}
	lcfg.OnRound = rejoinPattern(failAfter, respawnAfter,
		func() { lb.Fail(1) }, func() { lb.Respawn(1) })
	loopback, err := RunCluster(lcfg)
	if err != nil {
		t.Fatal(err)
	}

	if overTCP.WholeSince != loopback.WholeSince || overTCP.WholeSince != respawnAfter+1 {
		t.Fatalf("WholeSince %d (TCP) vs %d (loopback), want %d",
			overTCP.WholeSince, loopback.WholeSince, respawnAfter+1)
	}
	for i := range loopback.Board.Records {
		if !loopback.Board.Records[i].Equal(overTCP.Board.Records[i]) {
			t.Errorf("round %d diverged between loopback and TCP re-join runs:\nloopback %+v\ntcp      %+v",
				i+1, loopback.Board.Records[i], overTCP.Board.Records[i])
		}
	}
	reference, err := RunSharded(ShardedConfig{
		Config: shardLocalConfig(t), Shards: workers, Gen: gen,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := overTCP.WholeSince - 1; i < cfg.Rounds; i++ {
		if !reference.Board.Records[i].Equal(overTCP.Board.Records[i]) {
			t.Errorf("post-recovery round %d diverged from the reference over TCP", i+1)
		}
	}
}

// A transient partition — the connection dies, the worker process (and its
// state) survives and comes back WITHOUT -rejoin: the survivor answers
// Hello with Configured=true, skips the configure re-shipment, and may
// re-join; only a cold spawn needs the operator's explicit flag.
func TestClusterTransientPartitionRejoinsWithoutFlag(t *testing.T) {
	const workers = 3
	const failAfter, reattachAfter = 3, 5
	gen := &ShardGen{MasterSeed: 70}

	ws := make([]*restartableTCPWorker, workers)
	addrs := make([]string, workers)
	for i := range ws {
		ws[i] = startRestartableTCPWorker(t, i)
		addrs[i] = ws[i].addr
	}
	tr, err := cluster.Dial(addrs, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	cfg := ClusterConfig{
		Config:    shardLocalConfig(t),
		Transport: tr,
		Gen:       gen,
		Fleet:     &fleet.Config{Rejoin: true},
	}
	cfg.OnRound = rejoinPattern(failAfter, reattachAfter,
		func() { ws[1].Partition() }, func() { ws[1].Reattach() })
	res, err := RunCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.WholeSince != reattachAfter+1 {
		t.Fatalf("survivor not re-admitted: WholeSince %d (events %+v)", res.WholeSince, res.FleetEvents)
	}
	reference, err := RunSharded(ShardedConfig{
		Config: shardLocalConfig(t), Shards: workers, Gen: gen,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := res.WholeSince - 1; i < cfg.Rounds; i++ {
		if !reference.Board.Records[i].Equal(res.Board.Records[i]) {
			t.Errorf("post-reattach round %d diverged from the reference", i+1)
		}
	}
}

// A worker that hangs (neither answers nor fails) cannot hang the game
// when the fleet call timeout is set: the in-flight call times out, the
// slot is dropped like any failure, and the game finishes on the
// survivors.
func TestClusterCallTimeoutDropsHungWorker(t *testing.T) {
	const workers = 3
	lb := cluster.NewLoopback(workers)
	release := make(chan struct{})
	t.Cleanup(func() { close(release) })
	ht := &hangTransport{Transport: lb, block: release, hang: make(map[int]bool)}

	cfg := ClusterConfig{
		Config:    shardLocalConfig(t),
		Transport: ht,
		Gen:       &ShardGen{MasterSeed: 80},
		Fleet:     &fleet.Config{CallTimeout: 100 * time.Millisecond},
	}
	rounds := 0
	cfg.OnRound = func(RoundRecord) {
		rounds++
		if rounds == 3 {
			ht.Hang(1)
		}
	}
	done := make(chan struct{})
	var res *Result
	var err error
	go func() {
		defer close(done)
		res, err = RunCluster(cfg)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("game hung on a hung worker despite CallTimeout")
	}
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(res.Board.Records), cfg.Rounds; got != want {
		t.Fatalf("game stopped early: %d/%d rounds", got, want)
	}
	if res.LostShards != 1 || len(res.Losses) != 1 || res.Losses[0].Round != 4 {
		t.Fatalf("hung worker not dropped as a loss: %+v", res.Losses)
	}
	if !strings.Contains(res.Losses[0].Phase, "generate") {
		t.Fatalf("loss phase %q", res.Losses[0].Phase)
	}
}

// hangTransport wraps a transport and makes calls to chosen workers block
// until the test releases them — the loopback double of a SIGSTOPped
// process.
type hangTransport struct {
	cluster.Transport
	block chan struct{}

	mu   sync.Mutex
	hang map[int]bool
}

func (h *hangTransport) Hang(worker int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.hang[worker] = true
}

func (h *hangTransport) Call(worker int, req []byte) ([]byte, error) {
	h.mu.Lock()
	hung := h.hang[worker]
	h.mu.Unlock()
	if hung {
		<-h.block
		return nil, fmt.Errorf("hangTransport: worker %d released after test end", worker)
	}
	return h.Transport.Call(worker, req)
}

// The LDP cluster game under the same supervision: post-recovery records
// match the uninterrupted shard-local LDP reference.
func TestClusterRejoinLDPLoopback(t *testing.T) {
	const workers = 3
	const failAfter, respawnAfter = 2, 4
	gen := &ShardGen{MasterSeed: 71}

	reference, err := RunShardedLDP(LDPShardedConfig{LDPConfig: shardLocalLDPConfig(t), Shards: workers, Gen: gen})
	if err != nil {
		t.Fatal(err)
	}

	lb := cluster.NewLoopback(workers)
	cfg := LDPClusterConfig{
		LDPConfig: shardLocalLDPConfig(t),
		Transport: lb,
		Gen:       gen,
		Fleet:     &fleet.Config{Rejoin: true},
	}
	cfg.OnRound = rejoinPattern(failAfter, respawnAfter,
		func() { lb.Fail(1) }, func() { lb.Respawn(1) })
	res, err := RunClusterLDP(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.WholeSince != respawnAfter+1 {
		t.Fatalf("WholeSince = %d, want %d (events %+v)", res.WholeSince, respawnAfter+1, res.FleetEvents)
	}
	for i := res.WholeSince - 1; i < cfg.Rounds; i++ {
		if !reference.Board.Records[i].Equal(res.Board.Records[i]) {
			t.Errorf("post-recovery round %d diverged:\nreference %+v\ncluster   %+v",
				i+1, reference.Board.Records[i], res.Board.Records[i])
		}
	}
	if len(res.Losses) != 1 || res.Losses[0].Phase != "generate" {
		t.Fatalf("losses = %+v", res.Losses)
	}
}

// A full checkpointed run, then a second coordinator resuming from a
// mid-game snapshot over a fresh transport: the final board must be
// identical record for record and the game-long stream estimates identical
// bit for bit — the uninterrupted run IS the reference for its own resume.
func TestClusterCheckpointResumeLoopback(t *testing.T) {
	const workers = 3
	gen := &ShardGen{MasterSeed: 72}
	dir := t.TempDir()
	ck, err := fleet.NewCheckpointer(dir, 3)
	if err != nil {
		t.Fatal(err)
	}

	full, err := RunCluster(ClusterConfig{
		Config:     shardLocalConfig(t),
		Transport:  cluster.NewLoopback(workers),
		Gen:        gen,
		Checkpoint: ck,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Resume from the earliest snapshot (after round 3): seven rounds replay.
	snap, err := fleet.Load(filepath.Join(dir, "checkpoint-000003.tq"))
	if err != nil {
		t.Fatal(err)
	}
	if snap.NextRound != 4 {
		t.Fatalf("snapshot next round %d", snap.NextRound)
	}
	resumed, err := RunCluster(ClusterConfig{
		Config:    shardLocalConfig(t),
		Transport: cluster.NewLoopback(workers),
		Gen:       gen,
		Resume:    snap,
	})
	if err != nil {
		t.Fatal(err)
	}
	assertSameFinalState(t, full, resumed)

	// The latest snapshot resumes too (one round left).
	latest, _, err := fleet.LoadLatest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if latest.NextRound != 10 {
		t.Fatalf("latest snapshot next round %d", latest.NextRound)
	}
	resumedLate, err := RunCluster(ClusterConfig{
		Config:    shardLocalConfig(t),
		Transport: cluster.NewLoopback(workers),
		Gen:       gen,
		Resume:    latest,
	})
	if err != nil {
		t.Fatal(err)
	}
	assertSameFinalState(t, full, resumedLate)
}

// Resume over real TCP sockets: identical final state again.
func TestClusterCheckpointResumeTCP(t *testing.T) {
	const workers = 2
	gen := &ShardGen{MasterSeed: 73}
	dir := t.TempDir()
	ck, err := fleet.NewCheckpointer(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	full, err := RunCluster(ClusterConfig{
		Config:     shardLocalConfig(t),
		Transport:  cluster.NewLoopback(workers),
		Gen:        gen,
		Checkpoint: ck,
	})
	if err != nil {
		t.Fatal(err)
	}
	snap, _, err := fleet.LoadLatest(dir)
	if err != nil {
		t.Fatal(err)
	}

	addrs := make([]string, workers)
	for i := 0; i < workers; i++ {
		w := startRestartableTCPWorker(t, i)
		addrs[i] = w.addr
	}
	tr, err := cluster.Dial(addrs, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := RunCluster(ClusterConfig{
		Config:    shardLocalConfig(t),
		Transport: tr,
		Gen:       gen,
		Resume:    snap,
	})
	if err != nil {
		t.Fatal(err)
	}
	assertSameFinalState(t, full, resumed)
}

// A snapshot cut after a loss-and-rejoin carries the membership history:
// the resumed run reports the same losses, events and WholeSince as the
// run it continues, so recovery-aware verification keeps excluding the
// right degraded window. A snapshot cut *inside* the degraded window works
// too — the resumed configure re-admits the slot, the combined log records
// it, and records from the implicit re-admission on match the reference.
func TestClusterResumeAfterLossKeepsHistory(t *testing.T) {
	const workers = 3
	const failAfter, respawnAfter = 3, 5
	gen := &ShardGen{MasterSeed: 81}
	dir := t.TempDir()
	ck, err := fleet.NewCheckpointer(dir, 2)
	if err != nil {
		t.Fatal(err)
	}

	lb := cluster.NewLoopback(workers)
	cfg := ClusterConfig{
		Config:     shardLocalConfig(t),
		Transport:  lb,
		Gen:        gen,
		Fleet:      &fleet.Config{Rejoin: true},
		Checkpoint: ck,
	}
	cfg.OnRound = rejoinPattern(failAfter, respawnAfter,
		func() { lb.Fail(1) }, func() { lb.Respawn(1) })
	full, err := RunCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if full.WholeSince != respawnAfter+1 {
		t.Fatalf("full run WholeSince %d", full.WholeSince)
	}

	// Resume from a post-recovery snapshot (cut after round 8): identical
	// final state, and the degraded window still reported.
	snap, err := fleet.Load(filepath.Join(dir, "checkpoint-000008.tq"))
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Events) != 2 || len(snap.Losses) != 1 {
		t.Fatalf("snapshot history: events %+v losses %+v", snap.Events, snap.Losses)
	}
	resumed, err := RunCluster(ClusterConfig{
		Config:    shardLocalConfig(t),
		Transport: cluster.NewLoopback(workers),
		Gen:       gen,
		Resume:    snap,
	})
	if err != nil {
		t.Fatal(err)
	}
	assertSameFinalState(t, full, resumed)
	if resumed.WholeSince != full.WholeSince {
		t.Fatalf("resumed WholeSince %d, full run %d", resumed.WholeSince, full.WholeSince)
	}
	if len(resumed.Losses) != 1 || resumed.Losses[0] != full.Losses[0] {
		t.Fatalf("resumed losses %+v, full %+v", resumed.Losses, full.Losses)
	}
	if len(resumed.FleetEvents) != len(full.FleetEvents) {
		t.Fatalf("resumed events %+v, full %+v", resumed.FleetEvents, full.FleetEvents)
	}

	// Resume from the mid-window snapshot (cut after round 4, slot 1 still
	// down): the fresh transport brings every slot back at configure, the
	// combined log records the implicit re-admission at the resume round,
	// and records from there on match the uninterrupted reference.
	midSnap, err := fleet.Load(filepath.Join(dir, "checkpoint-000004.tq"))
	if err != nil {
		t.Fatal(err)
	}
	midResumed, err := RunCluster(ClusterConfig{
		Config:    shardLocalConfig(t),
		Transport: cluster.NewLoopback(workers),
		Gen:       gen,
		Resume:    midSnap,
	})
	if err != nil {
		t.Fatal(err)
	}
	if midResumed.WholeSince != midSnap.NextRound {
		t.Fatalf("mid-window resume WholeSince %d, want %d (events %+v)",
			midResumed.WholeSince, midSnap.NextRound, midResumed.FleetEvents)
	}
	reference, err := RunSharded(ShardedConfig{
		Config: shardLocalConfig(t), Shards: workers, Gen: gen,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := midResumed.WholeSince - 1; i < cfg.Rounds; i++ {
		if !reference.Board.Records[i].Equal(midResumed.Board.Records[i]) {
			t.Errorf("mid-window resume round %d diverged from the reference", i+1)
		}
	}
}

// assertSameFinalState checks the resumed run against the uninterrupted
// one: the board record for record, and every game-long estimator bit for
// bit (exact counts and sums, and the stream sketches themselves).
func assertSameFinalState(t *testing.T, full, resumed *Result) {
	t.Helper()
	if len(full.Board.Records) != len(resumed.Board.Records) {
		t.Fatalf("rounds %d vs %d", len(full.Board.Records), len(resumed.Board.Records))
	}
	for i := range full.Board.Records {
		if !full.Board.Records[i].Equal(resumed.Board.Records[i]) {
			t.Errorf("round %d diverged after resume:\nfull    %+v\nresumed %+v",
				i+1, full.Board.Records[i], resumed.Board.Records[i])
		}
	}
	if full.Kept.Count() != resumed.Kept.Count() || full.Kept.Sum() != resumed.Kept.Sum() {
		t.Errorf("kept stream: count %d/%d sum %v/%v",
			full.Kept.Count(), resumed.Kept.Count(), full.Kept.Sum(), resumed.Kept.Sum())
	}
	if full.KeptMean() != resumed.KeptMean() {
		t.Errorf("kept mean %v vs %v", full.KeptMean(), resumed.KeptMean())
	}
	for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.99} {
		if full.Kept.Query(q) != resumed.Kept.Query(q) {
			t.Errorf("kept q%v: %v vs %v", q, full.Kept.Query(q), resumed.Kept.Query(q))
		}
		if full.Received.Query(q) != resumed.Received.Query(q) {
			t.Errorf("received q%v: %v vs %v", q, full.Received.Query(q), resumed.Received.Query(q))
		}
	}
	if full.Received.Count() != resumed.Received.Count() || full.Received.Sum() != resumed.Received.Sum() {
		t.Errorf("received stream: count %d/%d sum %v/%v",
			full.Received.Count(), resumed.Received.Count(), full.Received.Sum(), resumed.Received.Sum())
	}
}

// A resume against the wrong configuration must be rejected on every
// fingerprint axis, and a tampered snapshot must fail the purity check.
func TestClusterResumeValidation(t *testing.T) {
	const workers = 2
	gen := &ShardGen{MasterSeed: 74}
	dir := t.TempDir()
	ck, err := fleet.NewCheckpointer(dir, 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunCluster(ClusterConfig{
		Config:     shardLocalConfig(t),
		Transport:  cluster.NewLoopback(workers),
		Gen:        gen,
		Checkpoint: ck,
	}); err != nil {
		t.Fatal(err)
	}
	snap, _, err := fleet.LoadLatest(dir)
	if err != nil {
		t.Fatal(err)
	}

	base := func() ClusterConfig {
		return ClusterConfig{
			Config:    shardLocalConfig(t),
			Transport: cluster.NewLoopback(workers),
			Gen:       &ShardGen{MasterSeed: 74},
			Resume:    snap,
		}
	}
	cases := map[string]func(*ClusterConfig){
		"wrong seed":      func(c *ClusterConfig) { c.Gen = &ShardGen{MasterSeed: 99} },
		"wrong workers":   func(c *ClusterConfig) { c.Transport = cluster.NewLoopback(workers + 1) },
		"wrong rounds":    func(c *ClusterConfig) { c.Rounds++ },
		"wrong ratio":     func(c *ClusterConfig) { c.AttackRatio = 0.3 },
		"no gen":          func(c *ClusterConfig) { c.Gen = nil },
		"wrong subshards": func(c *ClusterConfig) { c.SubShards = 2 },
		"wrong focus":     func(c *ClusterConfig) { c.FocusTighten = 4 },
	}
	for name, mutate := range cases {
		cfg := base()
		mutate(&cfg)
		if _, err := RunCluster(cfg); err == nil {
			t.Errorf("%s: resume accepted", name)
		}
	}

	// Checkpointing without the shard-local data plane is rejected too.
	nolocal := clusterConfig(t, 75, workers)
	nolocal.Gen = nil
	nolocal.Checkpoint = ck
	if _, err := RunCluster(nolocal); err == nil ||
		!strings.Contains(err.Error(), "shard-local") {
		t.Errorf("checkpoint without Gen: err = %v", err)
	}

	// A snapshot from a different game fails the baseline purity check.
	tampered := *snap
	tampered.BaselineQ += 0.001
	cfg := base()
	cfg.Resume = &tampered
	if _, err := RunCluster(cfg); err == nil || !strings.Contains(err.Error(), "baseline") {
		t.Errorf("tampered baseline: err = %v", err)
	}

	// A stream state New could not have built is refused, not restored: as
	// claimed, its 2^31−1 block size would allocate a 16 GiB push buffer
	// and kill the resuming process.
	huge := *snap
	kept := *snap.Kept
	kept.BlockSize = 1<<31 - 1
	huge.Kept = &kept
	cfg = base()
	cfg.Resume = &huge
	if _, err := RunCluster(cfg); err == nil || !strings.Contains(err.Error(), "block size") {
		t.Errorf("oversized stream block: err = %v", err)
	}

	// A different collector strategy breaks the replay check.
	replay := base()
	replay.Collector = mustStatic(t, 0.8)
	if _, err := RunCluster(replay); err == nil || !strings.Contains(err.Error(), "replay") {
		t.Errorf("replay divergence: err = %v", err)
	}
}

// Snapshot wire round trip through a real game state: encode∘decode is the
// identity on the snapshot a checkpointing run writes.
func TestSnapshotRoundTripThroughGame(t *testing.T) {
	const workers = 2
	gen := &ShardGen{MasterSeed: 76}
	dir := t.TempDir()
	ck, err := fleet.NewCheckpointer(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	lb := cluster.NewLoopback(workers)
	cfg := ClusterConfig{
		Config:     shardLocalConfig(t),
		Transport:  lb,
		Gen:        gen,
		Checkpoint: ck,
		Fleet:      &fleet.Config{Rejoin: true},
	}
	cfg.OnRound = rejoinPattern(3, 5, func() { lb.Fail(0) }, func() { lb.Respawn(0) })
	if _, err := RunCluster(cfg); err != nil {
		t.Fatal(err)
	}
	snap, _, err := fleet.LoadLatest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Epoch != 2 {
		t.Errorf("snapshot epoch %d, want 2 (drop + admit)", snap.Epoch)
	}
	if len(snap.Losses) != 1 || snap.Losses[0].Worker != 0 {
		t.Errorf("snapshot losses %+v", snap.Losses)
	}
	raw := wire.EncodeSnapshot(nil, snap)
	back, err := wire.DecodeSnapshot(raw)
	if err != nil {
		t.Fatal(err)
	}
	raw2 := wire.EncodeSnapshot(nil, back)
	if string(raw) != string(raw2) {
		t.Fatal("snapshot encode∘decode∘encode not the identity")
	}
}

// shardLocalLDPConfig is the LDP analogue of shardLocalConfig: a pure
// function of (master seed, shard count), so it serves as the fleet
// reference game.
func shardLocalLDPConfig(t *testing.T) LDPConfig {
	t.Helper()
	inputs := make([]float64, 2000)
	rng := stats.NewRand(46)
	for i := range inputs {
		inputs[i] = stats.Clamp(rng.NormFloat64()*0.3, -1, 1)
	}
	mech, err := ldp.NewPiecewise(2)
	if err != nil {
		t.Fatal(err)
	}
	adv, err := attack.NewRange("Baseline0.9", 0.9, 1)
	if err != nil {
		t.Fatal(err)
	}
	return LDPConfig{
		Rounds: 8, Batch: 400, AttackRatio: 0.2,
		Inputs: inputs, Mechanism: mech,
		Collector: mustStatic(t, 0.9), Adversary: adv,
		TrimOnBatch: true,
	}
}

func mustStatic(t *testing.T, pct float64) trim.Strategy {
	t.Helper()
	s, err := trim.NewStatic("Static", pct)
	if err != nil {
		t.Fatal(err)
	}
	return s
}
