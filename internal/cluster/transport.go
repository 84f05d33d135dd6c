package cluster

import (
	"fmt"
	"sync"
)

// Transport delivers one encoded request to a worker and returns its
// encoded reply — the only primitive the coordinator needs. Workers are
// addressed by index 0..Workers()-1; that index is the shard index, so a
// transport's worker order determines the (deterministic) merge order at
// the coordinator. Call must be safe for concurrent use across distinct
// worker indices; a Call error means the worker is lost (the coordinator
// drops the shard and continues, it never retries). The slot space is
// fixed: an elastic game's growth slots are listed from the start. A
// transport hands req to its handler unmodified, and a handler may keep
// read-only views of it (Handler), so a caller must neither modify nor
// reuse req after Call, and a transport that buffers requests gives each
// its own bytes.
type Transport interface {
	Workers() int
	Call(worker int, req []byte) ([]byte, error)
	Close() error
}

// Handler serves the worker side of the protocol: one encoded request in,
// one encoded reply out, plus a Done channel that closes when the handler
// has been stopped (OpStop). Worker implements it, and so does an
// aggregator node (internal/agg) — anything a Transport can point at.
//
// Handle may keep read-only views of req beyond the call: a Worker keeps
// its configure's reference, pool and dataset as views of the configure
// message (wire.DecodeDirective), and a node forwards req to its children
// as is. So no caller may modify or reuse a request buffer after handing
// it to Handle. The engine encodes every request afresh, an aggregator
// forwards the bytes it was given, and the TCP frame reader reads each
// body into a fresh slice.
type Handler interface {
	Handle(req []byte) ([]byte, error)
	Done() <-chan struct{}
}

// Reviver is the transport-level liveness hook of the fleet runtime
// (DESIGN.md §8): transports that can re-establish the path to a lost
// worker implement it. Revive succeeds only when a worker is actually
// reachable again — a re-spawned process listening on the old address (TCP)
// or a respawned in-process worker (loopback); while the worker is still
// gone it returns an error and the supervisor retries at the next round
// boundary. Reviving says nothing about the worker's game state: the
// supervisor still runs the Hello/Configure/Join admission handshake.
type Reviver interface {
	Revive(worker int) error
}

// Loopback is the in-process transport: n workers in the same address
// space, Call dispatching directly to Worker.Handle. Requests still cross
// the full wire encoding, so loopback runs exercise exactly the bytes a
// TCP run ships — it is both the deterministic test double and the
// single-machine fan-out used by `trimlab -experiment distributed`.
type Loopback struct {
	workers []*Worker
	prep    func(*Worker)

	mu     sync.Mutex
	failed map[int]bool
}

// NewLoopback returns a loopback transport over n fresh workers.
func NewLoopback(n int) *Loopback {
	return NewLoopbackPrepared(n, nil)
}

// NewLoopbackPrepared is NewLoopback with a per-worker preparation hook,
// applied to every worker the transport ever constructs — the initial n
// and any later Respawn replacement. Row-game resume tests use it to
// attach spill-backed kept-row pools (Worker.SetPoolOpener), so a
// respawned in-process worker recovers its pool exactly like a re-spawned
// `trimlab worker -spill-dir` process would.
func NewLoopbackPrepared(n int, prep func(*Worker)) *Loopback {
	l := &Loopback{workers: make([]*Worker, n), prep: prep, failed: make(map[int]bool)}
	for i := range l.workers {
		l.workers[i] = l.newWorker(i)
	}
	return l
}

func (l *Loopback) newWorker(i int) *Worker {
	w := NewWorker(i)
	if l.prep != nil {
		l.prep(w)
	}
	return w
}

// Workers returns the worker count.
func (l *Loopback) Workers() int { return len(l.workers) }

// Fail makes every subsequent Call to the given worker return an error —
// the test hook for the coordinator's drop-and-continue failure handling
// (the loopback analogue of killing a worker process).
func (l *Loopback) Fail(worker int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.failed[worker] = true
}

// Respawn replaces a failed worker with a fresh, state-free one that
// accepts a mid-game join — the loopback analogue of the operator
// re-launching `trimlab worker -rejoin` on the old address. Until Respawn
// is called, a failed worker stays unreachable and Revive keeps failing.
func (l *Loopback) Respawn(worker int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if worker < 0 || worker >= len(l.workers) {
		return
	}
	w := l.newWorker(worker)
	w.AllowRejoin()
	l.workers[worker] = w
	delete(l.failed, worker)
}

// Revive reports whether the worker is reachable again (Reviver). The
// loopback has no connection to re-establish, so this is a pure liveness
// check: an error while the slot is still failed, nil once respawned.
func (l *Loopback) Revive(worker int) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if worker < 0 || worker >= len(l.workers) {
		return fmt.Errorf("cluster: no worker %d", worker)
	}
	if l.failed[worker] {
		return fmt.Errorf("cluster: worker %d is down (injected failure)", worker)
	}
	return nil
}

// Call dispatches to the in-process worker.
func (l *Loopback) Call(worker int, req []byte) ([]byte, error) {
	if worker < 0 || worker >= len(l.workers) {
		return nil, fmt.Errorf("cluster: no worker %d", worker)
	}
	l.mu.Lock()
	w, dead := l.workers[worker], l.failed[worker]
	l.mu.Unlock()
	if dead {
		return nil, fmt.Errorf("cluster: worker %d is down (injected failure)", worker)
	}
	return w.Handle(req)
}

// Close is a no-op for the loopback.
func (l *Loopback) Close() error { return nil }
