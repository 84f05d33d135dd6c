// Package agg is the aggregator tier of the cluster runtime (DESIGN.md
// §13): interior merge nodes between the coordinator and its leaf workers.
// A Node owns a subtree of worker slots, fans every coordinator directive
// out to its children, merges their per-round reports locally, and forwards
// ONE combined report upstream — so the coordinator's per-round merge work
// drops from O(W) to O(fan-in) while the board stays record-for-record
// identical to the flat fleet (summary merges are associative, per-cell
// percentile subtotals and per-leaf vector deltas ride through unmerged).
//
// A Node implements cluster.Handler, so the same node serves the in-process
// Tree transport (deterministic tests) and a `trimlab aggregator` TCP
// process (cluster.ListenAndServe). Neither side needs a topology flag:
// every reply carries the subtree's live leaf count and height — a plain
// worker answers as a one-leaf subtree — so a node learns its children's
// shape from one Heartbeat each and the engine discovers the shape from
// the configure replies.
package agg

import (
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/stats/summary"
	"repro/internal/wire"
)

// Child is one downstream subtree: a plain worker, a deeper aggregator, or
// a remote process behind a dialed connection. Call ships one encoded
// directive and returns the encoded report; an error means the subtree is
// lost — the node drops the child for good and carries on with the
// survivors, exactly like the coordinator's drop-and-continue handling.
type Child interface {
	Call(req []byte) ([]byte, error)
}

// handlerChild adapts an in-process cluster.Handler (a Worker or a deeper
// Node) to a Child.
type handlerChild struct{ h cluster.Handler }

func (c handlerChild) Call(req []byte) ([]byte, error) { return c.h.Handle(req) }

// HandlerChild wraps an in-process handler as a Child.
func HandlerChild(h cluster.Handler) Child { return handlerChild{h: h} }

// transportChild addresses one slot of a cluster.Transport.
type transportChild struct {
	t cluster.Transport
	i int
}

func (c transportChild) Call(req []byte) ([]byte, error) { return c.t.Call(c.i, req) }

// DialChildren connects to child processes (workers or deeper aggregators)
// at the given addresses, retrying each for up to wait — the fan-in side of
// `trimlab aggregator`. Address order is leaf order.
func DialChildren(addrs []string, wait time.Duration) ([]Child, error) {
	t, err := cluster.Dial(addrs, wait)
	if err != nil {
		return nil, err
	}
	children := make([]Child, len(addrs))
	for i := range children {
		children[i] = transportChild{t: t, i: i}
	}
	return children, nil
}

// LevelEpsilon splits a run's summary budget ε across a tree of the given
// height so the end-to-end rank error still meets ε: the leaves and each of
// the height merge levels get ε/(height+1) — leaves sketch at the split
// budget, and an aggregator level that recompresses (SetCompress with
// b = ceil((height+1)/ε)) adds at most ε/(height+1) per level (Summary.
// Compress: ε' = ε + 1/b). Height 0 (a flat fleet) returns ε unchanged.
//
//trimlint:allow deadexport test oracle: the aggregator tier's ε-budget tests read it
func LevelEpsilon(eps float64, height int) float64 {
	if height < 1 {
		return eps
	}
	return eps / float64(height+1)
}

// CompressBudget is the per-level recompression budget matching
// LevelEpsilon: b entries keep the per-level error within ε/(height+1).
//
//trimlint:allow deadexport test oracle: the aggregator tier's ε-budget tests read it
func CompressBudget(eps float64, height int) int {
	if height < 1 || eps <= 0 {
		return 0
	}
	return int(math.Ceil(float64(height+1) / eps))
}

// Node is one aggregator: a cluster.Handler that stands for a subtree of
// worker slots. Handle decodes the coordinator's directive, splits it
// positionally among its children (generator cells and pool-trim targets
// slice by child leaf counts; everything else broadcasts verbatim),
// fans out in parallel, and merges the replies strictly in child order — child
// order is leaf order, so every order-sensitive fold at the coordinator
// sees the same sequence a flat fleet would produce.
type Node struct {
	mu       sync.Mutex
	id       int
	children []Child
	live     []bool
	leaves   []int // live leaf count behind each child (last reply)
	heights  []int

	// compress, when > 0, recompresses the merged summarize/kept sketches
	// to at most compress+1 entries before forwarding — the per-level ε
	// trade of LevelEpsilon/CompressBudget. Zero (the default) forwards the
	// lossless merge, which is what keeps tree boards bit-identical to flat
	// ones at the same leaf budget.
	compress int

	// Fleet runtime state, mirroring cluster.Worker: the admission epoch,
	// whether a configure has been forwarded, and the re-join guards.
	epoch           int
	hasConf         bool
	rejoin          bool
	helloConfigured bool

	// met, when set, receives the node's live counters (directives
	// handled, merge time, children lost) for the `trimlab aggregator
	// -obs-addr` endpoint; nil-safe like every obs handle.
	met *obs.Registry

	stopOnce sync.Once
	done     chan struct{}
}

// NewNode builds an aggregator over its children (child order = leaf
// order), probing each with one Heartbeat, whose reply carries the
// subtree shape. Construction requires every child reachable; at run time
// lost children are dropped and reported as lost leaves instead.
func NewNode(id int, children ...Child) (*Node, error) {
	if len(children) == 0 {
		return nil, fmt.Errorf("agg: node %d: no children", id)
	}
	n := &Node{
		id:       id,
		children: children,
		live:     make([]bool, len(children)),
		leaves:   make([]int, len(children)),
		heights:  make([]int, len(children)),
		done:     make(chan struct{}),
	}
	probe := wire.EncodeDirective(nil, &wire.Directive{Op: wire.OpHeartbeat})
	for i, c := range children {
		raw, err := c.Call(probe)
		if err != nil {
			return nil, fmt.Errorf("agg: node %d: probe child %d: %w", id, i, err)
		}
		rep, err := wire.DecodeReport(raw)
		if err != nil {
			return nil, fmt.Errorf("agg: node %d: probe child %d: %w", id, i, err)
		}
		n.live[i] = true
		n.leaves[i] = rep.Leaves
		n.heights[i] = rep.Height
	}
	return n, nil
}

// AllowRejoin permits this node to accept a mid-game membership grant — the
// re-spawned replacement mode behind `trimlab aggregator -rejoin`, mirroring
// Worker.AllowRejoin.
func (n *Node) AllowRejoin() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.rejoin = true
}

// SetCompress bounds the merged summarize/kept sketches this node forwards
// to at most b+1 entries (Summary.Compress), trading ≤ 1/b extra rank error
// per level for bounded upstream payloads; b ≤ 0 restores the lossless
// default. Pair with LevelEpsilon/CompressBudget to keep the end-to-end
// budget at the flat run's ε.
func (n *Node) SetCompress(b int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if b < 0 {
		b = 0
	}
	n.compress = b
}

// SetMetrics attaches a live metrics registry (nil detaches) — the
// counters `trimlab aggregator -obs-addr` serves over /metrics.
func (n *Node) SetMetrics(met *obs.Registry) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.met = met
}

// Done is closed once the node has handled OpStop.
func (n *Node) Done() <-chan struct{} { return n.done }

// Leaves returns the live leaf-worker count behind this node.
func (n *Node) Leaves() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.totalLeaves()
}

func (n *Node) totalLeaves() int {
	total := 0
	for i, l := range n.leaves {
		if n.live[i] {
			total += l
		}
	}
	return total
}

// Handle decodes one directive, fans it out to the live children, and
// returns the merged subtree report. It fails only when the directive is
// undecodable (the retired coordinator-fed op codes included) or violates
// the protocol, or the whole subtree is gone — a partial loss is
// reported in-band as LostLeaves on an otherwise ordinary report, so the
// coordinator charges the lost shards without dropping the slot.
func (n *Node) Handle(req []byte) ([]byte, error) {
	n.mu.Lock()
	defer n.mu.Unlock()

	d, err := wire.DecodeDirective(req)
	if err != nil {
		return nil, err
	}
	switch d.Op {
	case wire.OpHello:
		n.helloConfigured = n.hasConf
	case wire.OpJoin:
		if d.Epoch > 0 && !n.rejoin && !n.helloConfigured {
			return nil, fmt.Errorf("agg: node %d: mid-game join (epoch %d) of a fresh aggregator refused; relaunch it with re-join enabled", n.id, d.Epoch)
		}
		if !n.hasConf {
			return nil, fmt.Errorf("agg: node %d: join (epoch %d) before configure", n.id, d.Epoch)
		}
	case wire.OpConfigure, wire.OpStop, wire.OpHeartbeat,
		wire.OpGenerate, wire.OpClassify,
		wire.OpClassifyGenerate, wire.OpFetchRows, wire.OpPoolTrim:
		// No node-side pre-check before the fan-out.
	}

	reqs, err := n.split(d, req)
	if err != nil {
		return nil, err
	}
	rep, err := n.fanout(d, reqs)
	if err != nil {
		return nil, err
	}

	switch d.Op {
	case wire.OpConfigure:
		n.hasConf = true
	case wire.OpJoin:
		n.epoch = d.Epoch
		rep.Epoch = n.epoch
	case wire.OpStop:
		n.stopOnce.Do(func() { close(n.done) })
	case wire.OpHello, wire.OpHeartbeat,
		wire.OpGenerate, wire.OpClassify,
		wire.OpClassifyGenerate, wire.OpFetchRows, wire.OpPoolTrim:
		// No node-side state transition after the fan-out.
	}
	// The subtree is configured only when the node itself has seen a
	// configure AND every live child reports state — the field the
	// supervisor's re-admission decision reads from Hello/Heartbeat replies.
	rep.Configured = rep.Configured && n.hasConf
	return wire.EncodeReport(nil, rep), nil
}

// split builds the per-child request list (aligned with n.children; dead
// children get nil). A FetchRows routes to the one child owning the
// addressed leaf. Otherwise one rule covers every op: a subtree of one live
// leaf, and any directive with nothing positional in it, forwards the raw
// request bytes — a leaf worker then receives exactly the bytes a flat
// coordinator would have sent its slot — and a directive with positional
// parts (generator cells, pool-trim targets) is sliced by child leaf counts
// (splitLeaves).
func (n *Node) split(d *wire.Directive, raw []byte) ([][]byte, error) {
	switch {
	case d.Op == wire.OpFetchRows:
		return n.splitFetch(d)
	case (d.Op == wire.OpGenerate || d.Op == wire.OpClassifyGenerate) && d.Gen == nil:
		return nil, fmt.Errorf("agg: node %d: op %d without its generator spec", n.id, d.Op)
	}
	if n.totalLeaves() > 1 && (d.Gen != nil || d.Op == wire.OpPoolTrim) {
		return n.splitLeaves(d)
	}
	reqs := make([][]byte, len(n.children))
	for i := range n.children {
		if n.live[i] {
			reqs[i] = raw
		}
	}
	return reqs, nil
}

// splitFetch routes a kept-row page request to the single child owning the
// addressed leaf, rebasing Leaf into the child subtree's leaf order. The
// reply's page passes through fanout's concatenation untouched — exactly
// one child replies, so the node never accumulates pool contents.
func (n *Node) splitFetch(d *wire.Directive) ([][]byte, error) {
	reqs := make([][]byte, len(n.children))
	off := 0
	for i := range n.children {
		if !n.live[i] {
			continue
		}
		if d.Leaf < off+n.leaves[i] {
			cd := *d
			cd.Leaf = d.Leaf - off
			reqs[i] = wire.EncodeDirective(nil, &cd)
			return reqs, nil
		}
		off += n.leaves[i]
	}
	return nil, fmt.Errorf("agg: node %d: fetch-rows leaf %d beyond %d live leaves", n.id, d.Leaf, off)
}

// splitLeaves is the positional split of a directive over a subtree of
// more than one leaf: child i with l leaves takes, at its leaf offset,
//
//   - its run of l·C consecutive generator cells (the subtree's cells are
//     the flat (leaf, sub-shard) cell run it covers, C per leaf);
//   - for a PoolTrim, its l per-leaf row targets.
//
// Everything else in the directive is forwarded unchanged.
func (n *Node) splitLeaves(d *wire.Directive) ([][]byte, error) {
	total := n.totalLeaves()
	per := 0
	if d.Gen != nil {
		if len(d.Gen.Cells)%total != 0 {
			return nil, fmt.Errorf("agg: node %d: %d generator cells do not divide over %d leaves", n.id, len(d.Gen.Cells), total)
		}
		per = len(d.Gen.Cells) / total
	}
	if d.Op == wire.OpPoolTrim && len(d.Cuts) != total {
		return nil, fmt.Errorf("agg: node %d: %d pool-trim targets for %d leaves", n.id, len(d.Cuts), total)
	}
	reqs := make([][]byte, len(n.children))
	off := 0
	for i := range n.children {
		if !n.live[i] {
			continue
		}
		l := n.leaves[i]
		cd := *d
		if d.Gen != nil {
			g := *d.Gen
			g.Cells = d.Gen.Cells[off*per : (off+l)*per]
			cd.Gen = &g
		}
		if d.Op == wire.OpPoolTrim {
			cd.Cuts = d.Cuts[off : off+l]
		}
		off += l
		reqs[i] = wire.EncodeDirective(nil, &cd)
	}
	return reqs, nil
}

// fanout delivers the per-child requests in parallel and merges the replies
// strictly in child order. A child whose call fails is dropped for good and
// its pre-call leaf offsets are reported as LostLeaves; deeper losses arrive
// as the child's own LostLeaves and are remapped into this fan-out's leaf
// offset space.
func (n *Node) fanout(d *wire.Directive, reqs [][]byte) (*wire.Report, error) {
	type outcome struct {
		rep *wire.Report
		err error
	}
	replies := make([]outcome, len(n.children))
	var wg sync.WaitGroup
	for i := range n.children {
		if reqs[i] == nil {
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			raw, err := n.children[i].Call(reqs[i])
			if err != nil {
				replies[i].err = err
				return
			}
			replies[i].rep, replies[i].err = wire.DecodeReport(raw)
		}(i)
	}
	wg.Wait()

	start := obs.Now()
	out := &wire.Report{Round: d.Round, Worker: n.id, Epoch: n.epoch, Trace: d.Trace}
	var mergeNanos []int64
	confAll := true
	anyLive := false
	maxHeight := 0
	off := 0
	for i := range n.children {
		if reqs[i] == nil {
			continue
		}
		pre := n.leaves[i]
		if replies[i].err != nil {
			// The whole child subtree is gone: charge every leaf it covered
			// in this fan-out and drop it from all later rounds.
			n.live[i] = false
			n.leaves[i] = 0
			n.met.Counter("trimlab_agg_children_lost_total").Inc()
			for l := 0; l < pre; l++ {
				out.LostLeaves = append(out.LostLeaves, off+l)
			}
			off += pre
			continue
		}
		rep := replies[i].rep
		anyLive = true
		mergeChild(out, rep)
		for _, rel := range rep.LostLeaves {
			out.LostLeaves = append(out.LostLeaves, off+rel)
		}
		off += pre
		n.leaves[i] = rep.Leaves
		n.heights[i] = rep.Height
		if rep.Height > maxHeight {
			maxHeight = rep.Height
		}
		for lvl, v := range rep.MergeNanos {
			if lvl >= len(mergeNanos) {
				mergeNanos = append(mergeNanos, v)
			} else if v > mergeNanos[lvl] {
				mergeNanos[lvl] = v
			}
		}
		confAll = confAll && rep.Configured
	}
	if !anyLive {
		return nil, fmt.Errorf("agg: node %d: every child subtree is lost", n.id)
	}
	if n.compress > 0 {
		if out.Sum != nil {
			out.Sum.Compress(n.compress)
		}
		if out.Kept != nil {
			out.Kept.Compress(n.compress)
		}
	}
	out.Leaves = n.totalLeaves()
	out.Height = maxHeight + 1
	out.Configured = confAll
	own := obs.Since(start).Nanoseconds()
	out.MergeNanos = append(mergeNanos, own)
	n.met.Counter("trimlab_agg_directives_total").Inc()
	n.met.Counter("trimlab_agg_merge_nanos_total").Add(own)
	return out, nil
}

// mergeChild folds one child reply into the subtree report. Associative
// folds (summary merges, integer tallies, straggler maxima) merge here;
// order-sensitive float sequences (per-cell percentile subtotals, per-leaf
// vector deltas) concatenate in leaf order so the coordinator folds the
// exact sequence a flat fleet would have produced.
func mergeChild(out, rep *wire.Report) {
	if rep.Epsilon > out.Epsilon {
		out.Epsilon = rep.Epsilon
	}
	if rep.Sum != nil {
		if out.Sum == nil {
			out.Sum = &summary.Summary{}
		}
		out.Sum.Merge(rep.Sum)
	}
	out.Count += rep.Count
	out.ValueSum += rep.ValueSum
	out.InputSum += rep.InputSum
	out.PctSums = append(out.PctSums, rep.PctSums...)
	out.Counts.HonestKept += rep.Counts.HonestKept
	out.Counts.HonestTrimmed += rep.Counts.HonestTrimmed
	out.Counts.PoisonKept += rep.Counts.PoisonKept
	out.Counts.PoisonTrimmed += rep.Counts.PoisonTrimmed
	out.KeptCount += rep.KeptCount
	out.KeptSum += rep.KeptSum
	if rep.Kept != nil {
		if out.Kept == nil {
			out.Kept = &summary.Summary{}
		}
		out.Kept.Merge(rep.Kept)
	}
	// KeptRows/KeptLabels only ever arrive on a FetchRows reply (wire v8),
	// whose fan-out reaches exactly one child — the page passes through
	// without the node accumulating pool contents. PoolRows concatenate in
	// leaf order like the other per-leaf sequences.
	out.KeptRows = append(out.KeptRows, rep.KeptRows...)
	out.KeptLabels = append(out.KeptLabels, rep.KeptLabels...)
	out.PoolRows = append(out.PoolRows, rep.PoolRows...)
	out.Vecs = append(out.Vecs, rep.Vecs...)
	// Children ran in parallel: the straggler is the subtree's critical
	// path, so phase timings fold by max (the coordinator's network-share
	// estimate subtracts the busiest worker).
	if rep.GenerateNanos > out.GenerateNanos {
		out.GenerateNanos = rep.GenerateNanos
	}
	if rep.SummarizeNanos > out.SummarizeNanos {
		out.SummarizeNanos = rep.SummarizeNanos
	}
	if rep.ClassifyNanos > out.ClassifyNanos {
		out.ClassifyNanos = rep.ClassifyNanos
	}
}
