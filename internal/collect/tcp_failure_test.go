package collect

import (
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
)

// killableTCPWorker serves one cluster worker over real sockets and can be
// killed mid-game: kill closes the listener and every live connection, so
// the coordinator's next call fails exactly like a crashed process.
type killableTCPWorker struct {
	ln net.Listener

	mu     sync.Mutex
	conns  []net.Conn
	killed bool
}

func startKillableTCPWorker(t *testing.T, id int) (addr string, kill func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	k := &killableTCPWorker{ln: ln}
	w := cluster.NewWorker(id)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return // listener closed (kill or test end)
			}
			k.mu.Lock()
			if k.killed {
				k.mu.Unlock()
				conn.Close()
				return
			}
			k.conns = append(k.conns, conn)
			k.mu.Unlock()
			go cluster.ServeConn(conn, w)
		}
	}()
	kill = func() {
		k.mu.Lock()
		defer k.mu.Unlock()
		k.killed = true
		k.ln.Close()
		for _, c := range k.conns {
			c.Close()
		}
	}
	t.Cleanup(kill)
	return ln.Addr().String(), kill
}

// Killing a TCP worker mid-round must reproduce the loopback failure
// semantics exactly: the game drops the shard and continues on the
// survivors, LostShards counts the loss, the failure round's tallies run
// short, and the board matches a loopback run with the same failure point
// record for record — the transport cannot influence even the failure
// path. Exercised over the shard-local data plane (the failing call is the
// O(1) generate directive, not a slice shipment).
func TestRunClusterTCPWorkerKilledMidRound(t *testing.T) {
	const workers = 3
	addrs := make([]string, workers)
	kills := make([]func(), workers)
	for i := 0; i < workers; i++ {
		addrs[i], kills[i] = startKillableTCPWorker(t, i)
	}
	tr, err := cluster.Dial(addrs, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}

	cfg := ClusterConfig{
		Config:    shardLocalConfig(t),
		Transport: tr,
		Gen:       &ShardGen{MasterSeed: 70},
	}
	failAt := cfg.Rounds / 2
	rounds := 0
	cfg.OnRound = func(RoundRecord) {
		rounds++
		if rounds == failAt {
			kills[1]()
		}
	}
	done := make(chan struct{})
	var overTCP *Result
	go func() {
		defer close(done)
		overTCP, err = RunCluster(cfg)
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("cluster run hung after worker kill")
	}
	if err != nil {
		t.Fatal(err)
	}
	if overTCP.LostShards != 1 {
		t.Fatalf("LostShards = %d, want 1", overTCP.LostShards)
	}
	if got, want := len(overTCP.Board.Records), cfg.Rounds; got != want {
		t.Fatalf("game stopped early: %d/%d rounds", got, want)
	}

	// Reference: the identical game over loopback with the identical
	// failure point.
	lb := cluster.NewLoopback(workers)
	lcfg := ClusterConfig{
		Config:    shardLocalConfig(t),
		Transport: lb,
		Gen:       &ShardGen{MasterSeed: 70},
	}
	lrounds := 0
	lcfg.OnRound = func(RoundRecord) {
		lrounds++
		if lrounds == failAt {
			lb.Fail(1)
		}
	}
	loopback, err := RunCluster(lcfg)
	if err != nil {
		t.Fatal(err)
	}
	if loopback.LostShards != overTCP.LostShards {
		t.Fatalf("LostShards %d (loopback) vs %d (TCP)", loopback.LostShards, overTCP.LostShards)
	}
	for i := range loopback.Board.Records {
		if loopback.Board.Records[i] != overTCP.Board.Records[i] {
			t.Errorf("round %d diverged between loopback and TCP failure runs:\nloopback %+v\ntcp      %+v",
				i+1, loopback.Board.Records[i], overTCP.Board.Records[i])
		}
	}
	// The failure round's honest tally runs short; later rounds recover
	// the full batch on the survivors.
	short := overTCP.Board.Records[failAt].HonestKept + overTCP.Board.Records[failAt].HonestTrimmed
	if short >= cfg.Batch {
		t.Errorf("failure round tally %d not short of %d", short, cfg.Batch)
	}
	last := overTCP.Board.Records[cfg.Rounds-1]
	if last.HonestKept+last.HonestTrimmed != cfg.Batch {
		t.Errorf("post-loss round tally %d, want %d", last.HonestKept+last.HonestTrimmed, cfg.Batch)
	}
}
