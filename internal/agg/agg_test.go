package agg

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/wire"
)

// flaky is a Child that can be switched to failing mid-game — the unit-test
// double of a crashed downstream process.
type flaky struct {
	mu   sync.Mutex
	h    cluster.Handler
	dead bool
}

func (f *flaky) Call(req []byte) ([]byte, error) {
	f.mu.Lock()
	dead := f.dead
	f.mu.Unlock()
	if dead {
		return nil, fmt.Errorf("flaky: down")
	}
	return f.h.Handle(req)
}

func (f *flaky) fail() {
	f.mu.Lock()
	f.dead = true
	f.mu.Unlock()
}

func heartbeat(t *testing.T, h cluster.Handler) *wire.Report {
	t.Helper()
	raw, err := h.Handle(wire.EncodeDirective(nil, &wire.Directive{Op: wire.OpHeartbeat}))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := wire.DecodeReport(raw)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestNewNodeProbesChildren(t *testing.T) {
	n, err := NewNode(0,
		HandlerChild(cluster.NewWorker(0)),
		HandlerChild(cluster.NewWorker(1)),
		HandlerChild(cluster.NewWorker(2)))
	if err != nil {
		t.Fatal(err)
	}
	if got := n.Leaves(); got != 3 {
		t.Errorf("Leaves() = %d, want 3", got)
	}
	rep := heartbeat(t, n)
	if rep.Leaves != 3 || rep.Height != 1 {
		t.Errorf("reply shape %d leaves height %d, want 3/1", rep.Leaves, rep.Height)
	}

	dead := &flaky{h: cluster.NewWorker(1)}
	dead.fail()
	if _, err := NewNode(1, HandlerChild(cluster.NewWorker(0)), dead); err == nil {
		t.Error("construction over an unreachable child should fail")
	}
	if _, err := NewNode(2); err == nil {
		t.Error("construction without children should fail")
	}
}

// recorder is a Child that records the op of every directive it forwards
// to its handler.
type recorder struct {
	h   cluster.Handler
	ops []wire.Op
}

func (r *recorder) Call(req []byte) ([]byte, error) {
	d, err := wire.DecodeDirective(req)
	if err != nil {
		return nil, err
	}
	r.ops = append(r.ops, d.Op)
	return r.h.Handle(req)
}

// Construction learns each child's shape from exactly one Heartbeat — a
// worker and a subtree alike answer it with their Leaves/Height — and
// sends nothing else.
func TestNewNodeProbesEachChildOnceWithHeartbeat(t *testing.T) {
	inner, err := NewNode(0, HandlerChild(cluster.NewWorker(0)), HandlerChild(cluster.NewWorker(1)))
	if err != nil {
		t.Fatal(err)
	}
	kids := []*recorder{{h: cluster.NewWorker(2)}, {h: inner}, {h: cluster.NewWorker(3)}}
	n, err := NewNode(1, kids[0], kids[1], kids[2])
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range kids {
		if len(k.ops) != 1 || k.ops[0] != wire.OpHeartbeat {
			t.Errorf("child %d was sent ops %v, want one heartbeat", i, k.ops)
		}
	}
	if got := n.Leaves(); got != 4 {
		t.Errorf("Leaves() = %d, want 4", got)
	}
	if rep := heartbeat(t, n); rep.Leaves != 4 || rep.Height != 2 {
		t.Errorf("reply shape %d leaves height %d, want 4/2", rep.Leaves, rep.Height)
	}
}

// A deeper node raises the reported height and leaf count.
func TestNodeNesting(t *testing.T) {
	inner, err := NewNode(0, HandlerChild(cluster.NewWorker(0)), HandlerChild(cluster.NewWorker(1)))
	if err != nil {
		t.Fatal(err)
	}
	outer, err := NewNode(0, HandlerChild(inner), HandlerChild(cluster.NewWorker(2)))
	if err != nil {
		t.Fatal(err)
	}
	rep := heartbeat(t, outer)
	if rep.Leaves != 3 || rep.Height != 2 {
		t.Errorf("reply shape %d leaves height %d, want 3/2", rep.Leaves, rep.Height)
	}
}

// The retired coordinator-fed op codes (2 and 3) carried raw shards that
// cannot be split across a subtree: the node must refuse them outright —
// they no longer decode — instead of forwarding the directive to every leaf.
func TestNodeRejectsCoordinatorFedOps(t *testing.T) {
	n, err := NewNode(0, HandlerChild(cluster.NewWorker(0)), HandlerChild(cluster.NewWorker(1)))
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range []wire.Op{2, 3} {
		_, err := n.Handle(wire.EncodeDirective(nil, &wire.Directive{Op: op, Round: 1}))
		if err == nil || !strings.Contains(err.Error(), "shard-local") {
			t.Errorf("op %d: error = %v, want a shard-local data plane refusal", op, err)
		}
	}
}

// The node mirrors the worker's join guards: a fresh node refuses a
// mid-game membership grant unless re-join was explicitly allowed, and any
// join before a configure is a protocol error.
func TestNodeJoinGuards(t *testing.T) {
	mk := func() *Node {
		n, err := NewNode(0, HandlerChild(cluster.NewWorker(0)), HandlerChild(cluster.NewWorker(1)))
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	join := wire.EncodeDirective(nil, &wire.Directive{Op: wire.OpJoin, Epoch: 2})
	if _, err := mk().Handle(join); err == nil || !strings.Contains(err.Error(), "re-join") {
		t.Errorf("mid-game join of a fresh node: error = %v, want re-join refusal", err)
	}
	n := mk()
	n.AllowRejoin()
	if _, err := n.Handle(join); err == nil || !strings.Contains(err.Error(), "before configure") {
		t.Errorf("join before configure: error = %v, want configure-first refusal", err)
	}
}

// A lost child subtree is charged in the fan-out's leaf offset space — and
// deeper losses are remapped by the child's offset, so the coordinator's
// per-leaf loss ranges always index correctly.
func TestNodeSubtreeLossOffsets(t *testing.T) {
	bad := &flaky{h: cluster.NewWorker(1)}
	inner, err := NewNode(0, HandlerChild(cluster.NewWorker(0)), bad)
	if err != nil {
		t.Fatal(err)
	}
	outer, err := NewNode(0,
		HandlerChild(cluster.NewWorker(2)),
		HandlerChild(inner),
		HandlerChild(cluster.NewWorker(3)))
	if err != nil {
		t.Fatal(err)
	}
	// Leaf order under outer: [w2, w0, w1(bad), w3]. Killing w1 must be
	// reported as leaf offset 2, once.
	bad.fail()
	rep := heartbeat(t, outer)
	if len(rep.LostLeaves) != 1 || rep.LostLeaves[0] != 2 {
		t.Fatalf("LostLeaves = %v, want [2]", rep.LostLeaves)
	}
	if rep.Leaves != 3 {
		t.Errorf("Leaves = %d after the loss, want 3", rep.Leaves)
	}
	// The loss is charged exactly once; the survivors carry on.
	rep = heartbeat(t, outer)
	if len(rep.LostLeaves) != 0 || rep.Leaves != 3 {
		t.Errorf("second reply: LostLeaves %v Leaves %d, want none/3", rep.LostLeaves, rep.Leaves)
	}

	// Losing every child is a slot failure, not a report.
	solo, err := NewNode(1, &flaky{h: cluster.NewWorker(0)})
	if err != nil {
		t.Fatal(err)
	}
	solo.children[0].(*flaky).fail()
	if _, err := solo.Handle(wire.EncodeDirective(nil, &wire.Directive{Op: wire.OpHeartbeat})); err == nil {
		t.Error("a node with every subtree lost should fail the call")
	}
}

func TestTreeShapes(t *testing.T) {
	cases := []struct {
		leaves, fanin       int
		tops, height, total int
	}{
		{16, 4, 4, 1, 16},
		{16, 2, 2, 3, 16},
		{8, 2, 2, 2, 8},
		{12, 8, 2, 1, 12},
		{4, 4, 4, 0, 4}, // leaves ≤ fanin: flat fleet
		{1, 2, 1, 0, 1},
	}
	for _, c := range cases {
		tr, err := NewTree(c.leaves, c.fanin)
		if err != nil {
			t.Fatal(err)
		}
		if tr.Workers() != c.tops || tr.Leaves() != c.total {
			t.Errorf("tree(%d,%d): %d tops %d leaves, want %d/%d",
				c.leaves, c.fanin, tr.Workers(), tr.Leaves(), c.tops, c.total)
		}
		raw, err := tr.Call(0, wire.EncodeDirective(nil, &wire.Directive{Op: wire.OpHeartbeat}))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := wire.DecodeReport(raw)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Height != c.height {
			t.Errorf("tree(%d,%d): slot 0 height %d, want %d", c.leaves, c.fanin, rep.Height, c.height)
		}
	}
	if _, err := NewTree(0, 2); err == nil {
		t.Error("0 leaves should fail")
	}
	if _, err := NewTree(4, 1); err == nil {
		t.Error("fan-in 1 should fail")
	}
}

func TestTreeFailRespawnRevive(t *testing.T) {
	tr, err := NewTree(8, 4)
	if err != nil {
		t.Fatal(err)
	}
	probe := wire.EncodeDirective(nil, &wire.Directive{Op: wire.OpHeartbeat})
	tr.Fail(1)
	if _, err := tr.Call(1, probe); err == nil {
		t.Fatal("call to a failed slot should error")
	}
	if err := tr.Revive(1); err == nil {
		t.Fatal("revive of a still-failed slot should error")
	}
	if err := tr.Respawn(1); err != nil {
		t.Fatal(err)
	}
	if err := tr.Revive(1); err != nil {
		t.Fatalf("revive after respawn: %v", err)
	}
	raw, err := tr.Call(1, probe)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := wire.DecodeReport(raw)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Leaves != 4 || rep.Height != 1 {
		t.Errorf("respawned slot shape %d/%d, want 4/1", rep.Leaves, rep.Height)
	}
}

// The ε/h budget arithmetic of DESIGN.md §13.
func TestLevelEpsilonAndCompressBudget(t *testing.T) {
	if got := LevelEpsilon(0.06, 0); got != 0.06 {
		t.Errorf("flat LevelEpsilon = %v, want unchanged", got)
	}
	if got := LevelEpsilon(0.06, 2); math.Abs(got-0.02) > 1e-15 {
		t.Errorf("LevelEpsilon(0.06, 2) = %v, want 0.02", got)
	}
	if got := CompressBudget(0.06, 2); got != 50 {
		t.Errorf("CompressBudget(0.06, 2) = %d, want 50", got)
	}
	if got := CompressBudget(0.06, 0); got != 0 {
		t.Errorf("flat CompressBudget = %d, want 0 (lossless)", got)
	}
	// The invariant the pair exists for: leaf budget + height levels of
	// recompression never exceed the flat budget.
	for _, eps := range []float64{0.01, 0.05, 0.1} {
		for h := 1; h <= 4; h++ {
			leaf := LevelEpsilon(eps, h)
			b := CompressBudget(eps, h)
			total := leaf + float64(h)/float64(b)
			if total > eps+1e-12 {
				t.Errorf("eps %v height %d: leaf %v + %d levels × 1/%d = %v exceeds the budget",
					eps, h, leaf, h, b, total)
			}
		}
	}
}
