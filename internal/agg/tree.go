package agg

import (
	"fmt"
	"sync"

	"repro/internal/cluster"
)

// port is a failable in-process call boundary around one handler — the
// tree's analogue of Loopback's injected failures, available at every
// level: failing a leaf port is a mid-tree subtree loss the parent
// aggregator absorbs and reports as lost leaves, failing a top slot is the
// coordinator-visible loss the fleet runtime handles.
type port struct {
	mu   sync.Mutex
	h    cluster.Handler
	dead bool
}

func (p *port) Call(req []byte) ([]byte, error) {
	p.mu.Lock()
	h, dead := p.h, p.dead
	p.mu.Unlock()
	if dead {
		return nil, fmt.Errorf("agg: handler is down (injected failure)")
	}
	return h.Handle(req)
}

func (p *port) Handle(req []byte) ([]byte, error) { return p.Call(req) }
func (p *port) Done() <-chan struct{}             { return p.h.Done() }

// Tree is the in-process aggregator topology: leaf workers grouped under
// aggregator nodes by a fan-in factor, level by level, until at most fanin
// top slots remain — those are the coordinator's transport slots. Requests
// still cross the full wire encoding at every hop, so a loopback tree run
// exercises exactly the bytes a multi-process TCP tree ships. Tree
// implements cluster.Transport and Reviver (top-slot respawn + revive).
type Tree struct {
	tops    []*port   // coordinator slots, in slot order (fixed)
	topKids [][]Child // nil for a top slot that is a plain worker
	leafs   []*port   // every leaf worker port, in leaf order
	fanin   int

	mu       sync.Mutex
	compress int
}

// NewTree builds a tree over the given number of fresh leaf workers:
// consecutive groups of fanin leaves fold under one aggregator, repeatedly,
// while more than fanin slots remain. leaves ≤ fanin yields a flat fleet
// (no aggregators), making the tree a drop-in Loopback generalization.
//
//trimlint:allow deadexport fixture: the collect, cluster and agg tests build in-process trees with it
func NewTree(leaves, fanin int) (*Tree, error) {
	if leaves < 1 {
		return nil, fmt.Errorf("agg: tree with %d leaves", leaves)
	}
	if fanin < 2 {
		return nil, fmt.Errorf("agg: tree fan-in %d", fanin)
	}
	t := &Tree{fanin: fanin}
	cur := make([]*port, leaves)
	kids := make([][]Child, leaves)
	for i := range cur {
		cur[i] = &port{h: cluster.NewWorker(i)}
	}
	t.leafs = append(t.leafs, cur...)
	for len(cur) > fanin {
		var next []*port
		var nextKids [][]Child
		for lo := 0; lo < len(cur); lo += fanin {
			hi := lo + fanin
			if hi > len(cur) {
				hi = len(cur)
			}
			children := make([]Child, 0, hi-lo)
			for _, p := range cur[lo:hi] {
				children = append(children, p)
			}
			node, err := NewNode(len(next), children...)
			if err != nil {
				return nil, err
			}
			next = append(next, &port{h: node})
			nextKids = append(nextKids, children)
		}
		cur, kids = next, nextKids
	}
	t.tops, t.topKids = cur, kids[:len(cur)]
	return t, nil
}

// SetCompress applies a per-level sketch recompression budget to every
// aggregator in the tree (Node.SetCompress); b ≤ 0 restores the lossless
// default.
//
//trimlint:allow deadexport fixture: the collect, cluster and agg tests build in-process trees with it
func (t *Tree) SetCompress(b int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.compress = b
	for _, p := range t.tops {
		setCompress(p, b)
	}
}

func setCompress(p *port, b int) {
	p.mu.Lock()
	h := p.h
	p.mu.Unlock()
	n, ok := h.(*Node)
	if !ok {
		return
	}
	n.SetCompress(b)
	for _, c := range n.children {
		if hc, ok := c.(*port); ok {
			setCompress(hc, b)
		}
	}
}

// Workers returns the top-slot count — what the coordinator fans out to.
func (t *Tree) Workers() int { return len(t.tops) }

// Leaves returns the total leaf-worker count (including failed leaves —
// liveness is the coordinator's view, learned from replies).
//
//trimlint:allow deadexport fixture: the collect, cluster and agg tests build in-process trees with it
func (t *Tree) Leaves() int { return len(t.leafs) }

// Call dispatches to the top slot's handler.
func (t *Tree) Call(w int, req []byte) ([]byte, error) {
	if w < 0 || w >= len(t.tops) {
		return nil, fmt.Errorf("agg: no top slot %d", w)
	}
	return t.tops[w].Call(req)
}

// Close is a no-op: the tree is in-process.
func (t *Tree) Close() error { return nil }

// Fail makes every subsequent call to top slot w fail — the loopback
// analogue of killing an aggregator (or flat worker) process the
// coordinator talks to directly.
//
//trimlint:allow deadexport fixture: the collect, cluster and agg tests build in-process trees with it
func (t *Tree) Fail(w int) {
	if w < 0 || w >= len(t.tops) {
		return
	}
	t.tops[w].mu.Lock()
	t.tops[w].dead = true
	t.tops[w].mu.Unlock()
}

// FailLeaf makes leaf worker i (leaf order) unreachable from its parent —
// the mid-tree subtree loss: the parent aggregator drops the child and
// reports its leaf offsets as lost, while the coordinator keeps the slot.
//
//trimlint:allow deadexport fixture: the collect, cluster and agg tests build in-process trees with it
func (t *Tree) FailLeaf(i int) {
	if i < 0 || i >= len(t.leafs) {
		return
	}
	t.leafs[i].mu.Lock()
	t.leafs[i].dead = true
	t.leafs[i].mu.Unlock()
}

// Respawn replaces a failed top slot with a fresh handler that accepts a
// mid-game join: a fresh aggregator over the same children (the tree
// analogue of re-launching `trimlab aggregator -rejoin` against its old
// child addresses), or a fresh worker for a flat slot.
//
//trimlint:allow deadexport fixture: the collect, cluster and agg tests build in-process trees with it
func (t *Tree) Respawn(w int) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if w < 0 || w >= len(t.tops) {
		return fmt.Errorf("agg: no top slot %d", w)
	}
	var h cluster.Handler
	if kids := t.topKids[w]; kids != nil {
		node, err := NewNode(w, kids...)
		if err != nil {
			return err
		}
		node.AllowRejoin()
		if t.compress > 0 {
			node.SetCompress(t.compress)
		}
		h = node
	} else {
		fresh := cluster.NewWorker(w)
		fresh.AllowRejoin()
		h = fresh
	}
	p := t.tops[w]
	p.mu.Lock()
	p.h, p.dead = h, false
	p.mu.Unlock()
	return nil
}

// Revive reports whether top slot w is reachable again (cluster.Reviver):
// an error while the slot is still failed, nil once respawned.
func (t *Tree) Revive(w int) error {
	if w < 0 || w >= len(t.tops) {
		return fmt.Errorf("agg: no top slot %d", w)
	}
	t.tops[w].mu.Lock()
	dead := t.tops[w].dead
	t.tops[w].mu.Unlock()
	if dead {
		return fmt.Errorf("agg: top slot %d is down (injected failure)", w)
	}
	return nil
}
