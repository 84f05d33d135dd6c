package cluster

import (
	"strings"
	"testing"

	"repro/internal/wire"
)

func handle(t *testing.T, w *Worker, d *wire.Directive) *wire.Report {
	t.Helper()
	out, err := w.Handle(wire.EncodeDirective(nil, d))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := wire.DecodeReport(out)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// Heartbeat and Hello are pure probes: they report the worker's liveness
// state (configured flag, admission epoch) and mutate nothing — a held
// round survives any number of probes.
func TestWorkerHeartbeatHello(t *testing.T) {
	w := NewWorker(3)
	hb := handle(t, w, &wire.Directive{Op: wire.OpHeartbeat})
	if hb.Worker != 3 || hb.Configured || hb.Epoch != 0 {
		t.Fatalf("fresh heartbeat = %+v", hb)
	}
	handle(t, w, scalarConf())
	hello := handle(t, w, &wire.Directive{Op: wire.OpHello})
	if !hello.Configured {
		t.Fatal("hello after configure reports unconfigured")
	}
	// Two honest arrivals at 2, one poison arrival at 10.
	handle(t, w, scalarGen(1, 2, 1))
	handle(t, w, &wire.Directive{Op: wire.OpHeartbeat})
	rep := handle(t, w, &wire.Directive{Op: wire.OpClassify, Round: 1, Threshold: 2.5})
	if rep.Counts.HonestKept != 2 || rep.Counts.PoisonTrimmed != 1 {
		t.Fatalf("probe disturbed the held round: %+v", rep.Counts)
	}
}

// A mid-game membership grant (epoch > 0) is refused for a cold spawn —
// a worker whose state arrived through the admission handshake itself —
// unless it was launched re-join-capable, the guard behind `trimlab worker
// -rejoin`; the initial grant (epoch 0) always works, and join before
// configure is a protocol error.
func TestWorkerJoinGuard(t *testing.T) {
	w := NewWorker(0)
	if _, err := w.Handle(wire.EncodeDirective(nil, &wire.Directive{Op: wire.OpJoin, Epoch: 0})); err == nil ||
		!strings.Contains(err.Error(), "before configure") {
		t.Fatalf("join before configure: %v", err)
	}
	// Cold-spawn admission flow without -rejoin: Hello while unconfigured,
	// then Configure, then a mid-game Join — refused.
	handle(t, w, &wire.Directive{Op: wire.OpHello})
	handle(t, w, &wire.Directive{Op: wire.OpConfigure, Epsilon: 0.01})
	rep := handle(t, w, &wire.Directive{Op: wire.OpJoin, Epoch: 0})
	if rep.Epoch != 0 {
		t.Fatalf("initial join epoch %d", rep.Epoch)
	}
	if _, err := w.Handle(wire.EncodeDirective(nil, &wire.Directive{Op: wire.OpJoin, Epoch: 2})); err == nil ||
		!strings.Contains(err.Error(), "re-join") {
		t.Fatalf("mid-game join of a cold spawn without rejoin: %v", err)
	}
	w.AllowRejoin()
	rep = handle(t, w, &wire.Directive{Op: wire.OpJoin, Epoch: 2})
	if rep.Epoch != 2 {
		t.Fatalf("rejoin epoch %d", rep.Epoch)
	}
	// Subsequent reports echo the admission epoch.
	rep = handle(t, w, &wire.Directive{Op: wire.OpHeartbeat})
	if rep.Epoch != 2 {
		t.Fatalf("heartbeat after rejoin echoes epoch %d", rep.Epoch)
	}
}

// A transient-partition survivor — configured before the admission
// handshake's Hello — may re-join without -rejoin: it is already part of
// the game, only its connection died. A cold spawn is distinguished by its
// Hello arriving while unconfigured (see TestWorkerJoinGuard).
func TestWorkerJoinSurvivorWithoutRejoinFlag(t *testing.T) {
	w := NewWorker(1)
	handle(t, w, &wire.Directive{Op: wire.OpConfigure, Epsilon: 0.01})
	handle(t, w, &wire.Directive{Op: wire.OpJoin, Epoch: 0})
	// Connection drops and is re-established; the supervisor re-runs the
	// handshake: Hello sees Configured=true, skips the configure, joins.
	hello := handle(t, w, &wire.Directive{Op: wire.OpHello})
	if !hello.Configured {
		t.Fatal("survivor lost its state")
	}
	rep := handle(t, w, &wire.Directive{Op: wire.OpJoin, Epoch: 3})
	if rep.Epoch != 3 {
		t.Fatalf("survivor re-join epoch %d", rep.Epoch)
	}
}

// Re-configuring a worker mid-game (the re-admission path) discards any
// held round state: the next classify without a fresh generate fails.
func TestWorkerReconfigureClearsRound(t *testing.T) {
	w := NewWorker(0)
	handle(t, w, scalarConf())
	handle(t, w, scalarGen(1, 1, 0))
	handle(t, w, scalarConf())
	if _, err := w.Handle(wire.EncodeDirective(nil, &wire.Directive{Op: wire.OpClassify, Round: 1})); err == nil {
		t.Fatal("classify after reconfigure used stale round state")
	}
}

// Loopback liveness hooks: Fail makes the slot unreachable and Revive
// reports it down; Respawn brings up a fresh re-join-capable worker and
// Revive succeeds again.
func TestLoopbackFailRespawnRevive(t *testing.T) {
	lb := NewLoopback(2)
	conf := wire.EncodeDirective(nil, &wire.Directive{Op: wire.OpConfigure, Epsilon: 0.01})
	if _, err := lb.Call(1, conf); err != nil {
		t.Fatal(err)
	}
	lb.Fail(1)
	if err := lb.Revive(1); err == nil {
		t.Fatal("failed slot revived without respawn")
	}
	if _, err := lb.Call(1, conf); err == nil {
		t.Fatal("failed slot answered")
	}
	lb.Respawn(1)
	if err := lb.Revive(1); err != nil {
		t.Fatal(err)
	}
	// The respawned worker is fresh (unconfigured) and re-join-capable.
	out, err := lb.Call(1, wire.EncodeDirective(nil, &wire.Directive{Op: wire.OpHello}))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := wire.DecodeReport(out)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Configured {
		t.Fatal("respawned worker kept state")
	}
	if _, err := lb.Call(1, conf); err != nil {
		t.Fatal(err)
	}
	out, err = lb.Call(1, wire.EncodeDirective(nil, &wire.Directive{Op: wire.OpJoin, Epoch: 3}))
	if err != nil {
		t.Fatalf("respawned worker refused mid-game join: %v", err)
	}
	if rep, err = wire.DecodeReport(out); err != nil || rep.Epoch != 3 {
		t.Fatalf("rejoin epoch: %+v, %v", rep, err)
	}
	if err := lb.Revive(5); err == nil {
		t.Fatal("out-of-range revive succeeded")
	}
}
