// Package cluster is the process-boundary layer of the collection games: a
// coordinator/worker protocol in which workers hold one round's shard of
// arrivals, ship ε-approximate summary deltas back to the coordinator, and
// classify their shard against the trim threshold the coordinator resolves
// from the merged summaries. Workers generate their shard themselves — the
// shard-local data plane of DESIGN.md §7 — from an O(1) Generate directive
// carrying derived RNG seeds and compact parameters; raw arrivals never
// cross the process boundary. All traffic is internal/wire messages, so the
// same worker serves the in-process loopback transport (deterministic
// tests, `trimlab -experiment distributed`) and the TCP transport
// (`trimlab worker` / `trimlab coordinator`): net/rpc call multiplexing
// over a raw length-prefixed frame codec (tcp.go). The game loops themselves live in
// internal/collect (RunCluster, RunClusterRows, RunClusterLDP); this
// package knows nothing about strategies, boards or quality standards —
// generation is pure data plane (internal/arrival).
package cluster

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/arrival"
	"repro/internal/obs"
	"repro/internal/rowstore"
	"repro/internal/stats"
	"repro/internal/stats/summary"
	"repro/internal/wire"
)

// Worker executes game shards. It is a request/reply state machine over
// wire.Directive messages: Configure sets the sketch budget and installs
// the game's generator state (sorted reference or input pool, dataset,
// mechanism), Generate draws the shard's cells locally from derived seeds
// with that generator and returns their summary delta, Classify tallies
// the stored shard against the threshold and returns counts plus kept-pool
// deltas, Stop releases the worker. Every reply is that of a one-leaf
// subtree (Leaves 1, height 0), so a coordinator or aggregator treats a
// worker and a subtree alike. One worker serves one coordinator; Handle is
// serialized by an internal mutex so transports may deliver from any
// goroutine.
type Worker struct {
	mu  sync.Mutex
	id  int
	eps float64

	// Fleet runtime state (DESIGN.md §8). epoch is the membership epoch the
	// worker was last admitted at (OpJoin), echoed in every report;
	// configured reports whether data-plane state is installed (the
	// Hello/Heartbeat reply field re-admission turns on); rejoin permits a
	// mid-game Join (epoch > 0) for a cold replacement — a fresh worker
	// launched without it refuses to be grafted into a running game, the
	// guard behind `trimlab worker -rejoin`. helloConfigured stamps whether
	// the worker already held state when the admission handshake's Hello
	// arrived: a transient-partition survivor (configured before the
	// handshake) may re-join without the flag — it is already part of the
	// game — while a worker configured *by* the handshake is a cold spawn
	// and needs the operator's explicit -rejoin.
	epoch           int
	configured      bool
	rejoin          bool
	helloConfigured bool

	// Generator state, installed by Configure. The sorted reference
	// (scalarGen.Ref), the sorted input pool (ldpGen.Pool) and the dataset
	// rows (rowGen.X) are the configure directive's own blocks, read-only
	// views of the configure message wherever wire.DecodeDirective can view
	// them: an in-process fleet configured from one encoded message holds
	// one copy of that data for every worker, and a TCP worker keeps its
	// frame and no decoded copy. Nothing here ever writes them.
	scalarGen *arrival.Scalar
	ldpGen    *arrival.LDP
	rowGen    *arrival.Rows

	// Kept-row pool (row game, DESIGN.md §14): classify
	// appends this worker's kept rows here instead of shipping them, and
	// OpFetchRows pages them out at game end. Created at the row-game
	// configure — via poolOpen when set (`trimlab worker -spill-dir`
	// installs a file-backed spill pool that survives process restarts),
	// in-memory otherwise. Deliberately NOT reset by a re-configure: a
	// re-admitted worker's pool still holds the rows it kept before the
	// partition, and a re-spawned spill-backed worker recovers its pool
	// from disk — the property row-game resume rides on.
	//
	// The pool keeps the held row slices themselves (rowstore.Pool.Append
	// takes the rows it is given; the round state says why that is sound),
	// so a kept honest row costs an in-memory pool a slice header and a
	// label, not a second copy of the dataset's coordinates. An in-memory
	// pool therefore references the dataset it kept rows of — the configure
	// message, when the dataset is a view of it: a re-configure that ships
	// a new dataset leaves the old message alive while the pool holds rows
	// of it.
	pool     rowstore.Pool
	poolOpen func() (rowstore.Pool, error)

	// Round state, valid between a Generate and its Classify. held is the
	// authoritative "a generate happened" flag — an empty shard draws a nil
	// dists, so nil-ness cannot stand in for it. No held row is ever
	// written, so classify hands its kept rows to the pool as they are:
	// honest rows are capacity-capped slices of rowGen's dataset (the wire
	// decodes it into one backing array, a view of the configure message
	// where it can, and arrival.Rows draws rows by reference), and poison
	// rows are fresh from arrival.PoisonRow. dists is the one held slice
	// that is written: classify is its last reader and compacts the kept
	// values to its front (arrival.Keep).
	held   bool
	round  int
	dists  []float64         // scalar arrivals, or row distances from center
	rows   [][]float64       // row game only; never written
	labels []int             // row game only (nil when unlabeled)
	dim    int               // row game only: len(center)
	segs   []arrival.Segment // cell layout of dists (cells concatenate)

	stopOnce sync.Once
	done     chan struct{}
}

// NewWorker returns a worker with the given id (its shard index; echoed in
// every report so the coordinator can merge in deterministic order).
func NewWorker(id int) *Worker {
	return &Worker{id: id, done: make(chan struct{})}
}

// ID returns the worker's slot index — loopback preparation hooks use it
// to key per-worker resources such as spill directories.
//
//trimlint:allow deadexport fixture: the slot key a NewLoopbackPrepared hook reads in the collect tests
func (w *Worker) ID() int { return w.id }

// AllowRejoin permits this worker to accept a mid-game membership grant
// (OpJoin with a non-zero epoch) — the mode behind `trimlab worker -rejoin`
// of a re-spawned replacement or an elastic game's growth slot. Without it
// a fresh worker can only join a game at its initial admission, which
// guards against an operator accidentally pointing a replacement at the
// wrong running cluster.
func (w *Worker) AllowRejoin() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.rejoin = true
}

// SetPoolOpener installs the kept-row pool factory the next row-game
// configure uses (nil — the default — selects an in-memory pool). `trimlab
// worker -spill-dir` passes a rowstore.OpenSpill closure so the pool is
// file-backed and survives a kill/re-spawn.
func (w *Worker) SetPoolOpener(open func() (rowstore.Pool, error)) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.poolOpen = open
}

// Done is closed when the worker has handled OpStop — the signal for a
// serving loop to shut down.
func (w *Worker) Done() <-chan struct{} { return w.done }

// Handle decodes one directive, executes it, and returns the encoded
// report. Every error is a protocol error (bad bytes, out-of-order phases);
// the worker's round state is only cleared by a successful Classify or a
// new Generate.
func (w *Worker) Handle(req []byte) ([]byte, error) {
	w.mu.Lock()
	defer w.mu.Unlock()

	d, err := wire.DecodeDirective(req)
	if err != nil {
		return nil, err
	}
	rep := &wire.Report{Round: d.Round, Worker: w.id, Epoch: w.epoch, Configured: w.configured, Trace: d.Trace, Leaves: 1}
	switch d.Op {
	case wire.OpConfigure:
		if err := w.configure(d); err != nil {
			return nil, err
		}
		rep.Epsilon = w.eps
		rep.Configured = w.configured

	case wire.OpHeartbeat:
		// Pure probe: echo liveness state (id, epoch, configured already on
		// the report), mutate nothing.

	case wire.OpHello:
		// Admission handshake: the supervisor reads Configured to decide
		// whether to re-ship the data-plane state before granting a Join.
		// Stamp whether state predates this handshake — the distinction the
		// Join guard turns on.
		w.helloConfigured = w.configured

	case wire.OpJoin:
		if d.Epoch > 0 && !w.rejoin && !w.helloConfigured {
			return nil, fmt.Errorf("cluster: worker %d: mid-game join (epoch %d) of a fresh worker refused; relaunch it with re-join enabled", w.id, d.Epoch)
		}
		if !w.configured {
			return nil, fmt.Errorf("cluster: worker %d: join (epoch %d) before configure", w.id, d.Epoch)
		}
		w.epoch = d.Epoch
		rep.Epoch = w.epoch

	case wire.OpGenerate:
		if err := w.generate(d, rep); err != nil {
			return nil, err
		}

	case wire.OpClassify:
		if err := w.classifyHeld(d, rep); err != nil {
			return nil, err
		}

	case wire.OpClassifyGenerate:
		// The pipelined combined phase: classify the held round d.Round,
		// then immediately draw round d.Round+1 from the piggybacked spec.
		// The reply carries both (the field sets are disjoint); the worker
		// then holds the generated slice as round d.Round+1, awaiting either
		// its classify or — if the coordinator flushed the pipeline — a
		// plain Generate that overwrites it.
		if err := w.classifyHeld(d, rep); err != nil {
			return nil, err
		}
		next := *d
		next.Round = d.Round + 1
		if err := w.generate(&next, rep); err != nil {
			return nil, err
		}

	case wire.OpFetchRows:
		if err := w.fetchRows(d, rep); err != nil {
			return nil, err
		}

	case wire.OpPoolTrim:
		if err := w.poolTrim(d, rep); err != nil {
			return nil, err
		}

	case wire.OpStop:
		if w.pool != nil {
			w.pool.Close()
			w.pool = nil
		}
		w.stopOnce.Do(func() { close(w.done) })

	default:
		return nil, fmt.Errorf("cluster: worker %d: unexpected op %d", w.id, d.Op)
	}
	return wire.EncodeReport(nil, rep), nil
}

// configure installs the sketch budget and the generator state: the sorted
// reference alone (scalar), the sorted input pool + mechanism (LDP, with
// GRR's pool of categories among them), or dataset rows + labels (row
// game). The budget is resolved here, once (0 selects the default, and one
// no stream can be built with is refused), so every reply reports the
// budget its sketches use. A shipped pool, reference or dataset is kept as
// decoded — a view of the configure message where the wire can view it —
// and validated in place: its order and values are checked, never
// re-sorted or rewritten. A scalar configure that also carries a pool is
// refused: honest draws sample the reference.
// Re-configuring mid-game (the re-admission path) discards any held round
// state: a re-joined worker starts cold at the next round boundary.
func (w *Worker) configure(d *wire.Directive) error {
	w.scalarGen, w.ldpGen, w.rowGen = nil, nil, nil
	w.held, w.dists, w.rows, w.labels, w.dim, w.segs = false, nil, nil, nil, 0, nil
	eps, err := summary.ResolveEpsilon(d.Epsilon)
	if err != nil {
		return fmt.Errorf("cluster: worker %d: %w", w.id, err)
	}
	w.eps = eps
	switch {
	case arrival.Mech(d.MechKind) != arrival.MechNone:
		mech, err := arrival.MechFromWire(arrival.Mech(d.MechKind), d.MechEps, d.MechK)
		if err != nil {
			return fmt.Errorf("cluster: worker %d: %w", w.id, err)
		}
		gen, err := arrival.NewLDP(d.Pool, mech)
		if err != nil {
			return fmt.Errorf("cluster: worker %d: %w", w.id, err)
		}
		w.ldpGen = gen
	case len(d.Rows) > 0:
		gen, err := arrival.NewRows(d.Rows, d.Labels, d.Clusters, d.PoisonLabel)
		if err != nil {
			return fmt.Errorf("cluster: worker %d: %w", w.id, err)
		}
		w.rowGen = gen
		// Ensure the kept-row pool exists (see the field doc for why an
		// existing pool survives a re-configure).
		if w.pool == nil {
			if w.poolOpen != nil {
				pool, err := w.poolOpen()
				if err != nil {
					return fmt.Errorf("cluster: worker %d: %w", w.id, err)
				}
				w.pool = pool
			} else {
				w.pool = rowstore.NewMem()
			}
		}
	case len(d.Pool) > 0:
		return fmt.Errorf("cluster: worker %d: scalar configure carries a pool; honest draws sample the reference", w.id)
	case len(d.RefSorted) > 0:
		gen, err := arrival.NewScalar(d.RefSorted)
		if err != nil {
			return fmt.Errorf("cluster: worker %d: %w", w.id, err)
		}
		w.scalarGen = gen
	}
	w.configured = true
	return nil
}

// classifyHeld guards, classifies the held round against the directive's
// threshold, and clears the round state — the shared body of OpClassify
// and the classify half of OpClassifyGenerate.
func (w *Worker) classifyHeld(d *wire.Directive, rep *wire.Report) error {
	if d.Round != w.round || !w.held {
		return fmt.Errorf("cluster: worker %d: classify round %d without summarize (held round %d)",
			w.id, d.Round, w.round)
	}
	if err := w.classify(d.Threshold, rep); err != nil {
		return err
	}
	w.held, w.dists, w.rows, w.labels, w.dim, w.segs = false, nil, nil, nil, 0, nil
	return nil
}

// parallel runs f(0) … f(n−1): inline when n is 1, else on one goroutine
// each, returning when all are done.
func parallel(n int, f func(i int)) {
	if n == 1 {
		f(0)
		return
	}
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer wg.Done()
			f(i)
		}()
	}
	wg.Wait()
}

// concat joins per-cell slices in cell order. A single cell's slice is held
// as is, and cells that drew nothing join to nil — so an unlabeled
// dataset's nil labels stay nil however many cells drew.
func concat[T any](parts [][]T) []T {
	if len(parts) == 1 {
		return parts[0]
	}
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	if n == 0 {
		return nil
	}
	out := make([]T, 0, n)
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// cellDraw is one cell's generated slice.
type cellDraw struct {
	values           []float64   // scalar/LDP arrivals, or row distances from the center
	rows             [][]float64 // row game only
	labels           []int       // row game only (nil when unlabeled)
	pctSum, inputSum float64     // inputSum: LDP games only
	err              error
}

// draw generates one cell from its derived seed with the generator the
// configure installed. A scalar, LDP or GRR cell samples its honest
// arrivals from the configure's one sorted pool and resolves poison
// percentiles on the same array; a row cell resolves its poison
// percentiles on the directive's clean scale (Summary.Query is a pure
// read, so cells may draw concurrently) and measures its rows' distances
// from the center.
func (w *Worker) draw(d *wire.Directive, seed int64, spec arrival.Spec) (c cellDraw) {
	rng := stats.NewRand(seed)
	switch {
	case w.rowGen != nil:
		c.rows, c.labels, c.pctSum, c.err = w.rowGen.Draw(rng, spec, d.Center, func(pct float64) float64 {
			return d.Gen.Scale.Query(pct)
		})
		if c.err != nil {
			return c
		}
		c.values = make([]float64, len(c.rows))
		for i, row := range c.rows {
			if len(row) != len(d.Center) {
				c.err = fmt.Errorf("generated row dim %d, center dim %d", len(row), len(d.Center))
				return c
			}
			c.values[i] = stats.Euclidean(row, d.Center)
			if math.IsNaN(c.values[i]) {
				// The summary would drop it while classify tallies it.
				c.err = fmt.Errorf("generated row %d at NaN distance from the center", i)
				return c
			}
		}
	case w.ldpGen != nil:
		c.values, c.inputSum, c.pctSum, c.err = w.ldpGen.Draw(rng, spec)
	case w.scalarGen != nil:
		c.values, c.pctSum, c.err = w.scalarGen.Draw(rng, spec)
	default:
		c.err = fmt.Errorf("generate without a configured generator")
	}
	return c
}

// generate draws the directive's cells with the configured generator,
// holds them as the round's shard, and summarizes them — the one generate
// path of every game. A one-cell directive draws inline; several cells
// (per-core sub-shards, or a slot's share of them) draw on one goroutine
// each, with every fold over the cells done sequentially in cell order
// afterwards — so the report is a pure function of the directive,
// independent of goroutine scheduling, and a W×C cluster's merged
// summaries match a flat W·C-shard reference (the cells sit at slots
// worker·C…worker·C+C−1 of the same flat seed space). The reply carries
// one percentile sum per cell.
func (w *Worker) generate(d *wire.Directive, rep *wire.Report) error {
	specs, err := arrival.SpecFromWire(d.Gen)
	if err != nil {
		return fmt.Errorf("cluster: worker %d: %w", w.id, err)
	}
	if w.rowGen != nil {
		if len(d.Center) == 0 {
			return fmt.Errorf("cluster: worker %d: row generate without a center", w.id)
		}
		for _, s := range specs {
			if s.PoisonN > 0 && (d.Gen.Scale == nil || d.Gen.Scale.Size() == 0) {
				return fmt.Errorf("cluster: worker %d: row generate without a clean scale", w.id)
			}
		}
	}
	start := obs.Now()
	draws := make([]cellDraw, len(specs))
	parallel(len(specs), func(c int) { draws[c] = w.draw(d, d.Gen.Cells[c].Seed, specs[c]) })
	values := make([][]float64, len(draws))
	rows := make([][][]float64, len(draws))
	labels := make([][]int, len(draws))
	segs := make([]arrival.Segment, len(draws))
	rep.PctSums = make([]float64, len(draws))
	off := 0
	for c := range draws {
		if draws[c].err != nil {
			return fmt.Errorf("cluster: worker %d: cell %d: %w", w.id, c, draws[c].err)
		}
		values[c], rows[c], labels[c] = draws[c].values, draws[c].rows, draws[c].labels
		segs[c] = arrival.Segment{Start: off, PoisonFrom: off + specs[c].HonestN}
		off += len(values[c])
		rep.PctSums[c] = draws[c].pctSum
		rep.InputSum += draws[c].inputSum
	}
	w.held, w.round = true, d.Round
	w.dists, w.rows, w.labels, w.dim, w.segs = concat(values), concat(rows), concat(labels), len(d.Center), segs
	rep.GenerateNanos += obs.Since(start).Nanoseconds()
	return w.summarize(d, rep, values)
}

// summarize builds the held round's summary delta: one stream per cell,
// each built by arrival.Summarize — the step collect.RunSharded builds its
// shard streams with — at hint = cell length and the directive's focus
// window, so a loopback cluster reproduces RunSharded's merged summaries
// bit for bit. Several cells summarize in parallel and merge into one
// delta strictly in cell order (summary.MergeAll).
func (w *Worker) summarize(d *wire.Directive, rep *wire.Report, cells [][]float64) error {
	start := obs.Now()
	focus := arrival.Focus{Pct: d.FocusPct, Width: d.FocusWidth, Tighten: d.FocusTighten}
	sums := make([]*summary.Stream, len(cells))
	errs := make([]error, len(cells))
	parallel(len(cells), func(c int) {
		sums[c], errs[c] = arrival.Summarize(cells[c], w.eps, len(cells[c]), focus)
	})
	for c, st := range sums {
		if errs[c] != nil {
			return fmt.Errorf("cluster: worker %d: cell %d: %w", w.id, c, errs[c])
		}
		rep.Count += st.Count()
		rep.ValueSum += st.Sum()
	}
	rep.Epsilon = w.eps
	if len(sums) == 1 {
		rep.Sum = sums[0].Snapshot()
	} else {
		snaps := make([]*summary.Summary, len(sums))
		for c, st := range sums {
			snaps[c] = st.Snapshot()
		}
		rep.Sum = summary.MergeAll(snaps)
	}
	rep.SummarizeNanos += obs.Since(start).Nanoseconds()
	return nil
}

// classify tallies the held shard against the threshold and reports what
// the game's coordinator folds: the tallies and the exact kept count and
// sum always; the kept-value summary in the scalar game only, the one game
// whose coordinator absorbs it; and in the row game the accepted-row
// vector delta plus an append of the kept rows to the worker's own pool,
// with just the pool total reported (rows never travel per round;
// OpFetchRows pages them out at game end). The tallies and the kept values
// come from arrival.Keep, the kernel RunSharded's classify runs too: it
// compacts the kept values to the front of the held slice in held order,
// and arrival.Summarize builds the kept summary from them.
func (w *Worker) classify(threshold float64, rep *wire.Report) error {
	start := obs.Now()
	if w.rowGen != nil {
		// The row branch reads the held distances by index, so it runs
		// before the kernel compacts them.
		if err := w.keepRows(threshold, rep); err != nil {
			return err
		}
	}
	var kept []float64
	rep.Counts, kept = arrival.Keep(w.dists, w.segs, threshold)
	rep.Epsilon = w.eps
	rep.KeptCount = len(kept)
	if w.scalarGen != nil {
		st, err := arrival.Summarize(kept, w.eps, len(w.dists), arrival.Focus{})
		if err != nil {
			return fmt.Errorf("cluster: worker %d: %w", w.id, err)
		}
		rep.Kept, rep.KeptSum = st.Snapshot(), st.Sum()
	} else {
		// The held-order running sum, as a kept stream's Sum is.
		for _, v := range kept {
			rep.KeptSum += v
		}
	}
	rep.ClassifyNanos += obs.Since(start).Nanoseconds()
	return nil
}

// keepRows hands the held rows at or below the threshold, in held order,
// to the accepted-row vector delta and to the worker's kept-row pool, and
// reports the pool total. It only reads the held rows, and the pool keeps
// the kept ones as they are: no row is copied and none is modified
// afterwards.
func (w *Worker) keepRows(threshold float64, rep *wire.Report) error {
	if w.pool == nil {
		return fmt.Errorf("cluster: worker %d: row classify without a kept-row pool", w.id)
	}
	var vec *summary.Vector
	if w.rows != nil {
		var err error
		if vec, err = summary.NewVector(w.dim, w.eps, len(w.rows)); err != nil {
			return fmt.Errorf("cluster: worker %d: %w", w.id, err)
		}
	}
	var keptRows [][]float64
	var keptLabels []int
	for i, v := range w.dists {
		if !(v <= threshold) {
			continue
		}
		if err := vec.PushRow(w.rows[i]); err != nil {
			return fmt.Errorf("cluster: worker %d: %w", w.id, err)
		}
		keptRows = append(keptRows, w.rows[i])
		if w.labels != nil {
			keptLabels = append(keptLabels, w.labels[i])
		}
	}
	if err := w.pool.Append(keptRows, keptLabels); err != nil {
		return fmt.Errorf("cluster: worker %d: %w", w.id, err)
	}
	rep.PoolRows = []int{w.pool.Len()}
	if d := wire.DeltaFromVector(vec); d != nil {
		rep.Vecs = []*wire.VectorDelta{d}
	}
	return nil
}

// fetchRows pages the kept-row pool: the reply carries rows [Lo, Hi) in
// append order plus the pool total, so the coordinator can stream the
// collected data page by page at game end without ever holding more than
// one page. A plain worker is its own single leaf — Leaf must be 0
// (aggregators rebase while routing).
func (w *Worker) fetchRows(d *wire.Directive, rep *wire.Report) error {
	if d.Leaf != 0 {
		return fmt.Errorf("cluster: worker %d: fetch-rows leaf %d of a single-leaf worker", w.id, d.Leaf)
	}
	if w.pool == nil {
		return fmt.Errorf("cluster: worker %d: fetch-rows without a kept-row pool", w.id)
	}
	rows, labels, err := w.pool.Page(d.Lo, d.Hi)
	if err != nil {
		return fmt.Errorf("cluster: worker %d: %w", w.id, err)
	}
	rep.KeptRows = rows
	rep.KeptLabels = labels
	rep.PoolRows = []int{w.pool.Len()}
	return nil
}

// poolTrim rolls the kept-row pool back to the directive's one row target
// (aggregators slice Cuts per leaf) — resume's rollback of rows appended
// after the snapshot being restored. The reply reports the resulting
// total; a pool that cannot reach the target (an in-memory pool in a
// freshly spawned process) reports short and the coordinator rejects the
// resume, so the check lives where the fingerprint checks live.
func (w *Worker) poolTrim(d *wire.Directive, rep *wire.Report) error {
	if len(d.Cuts) != 1 {
		return fmt.Errorf("cluster: worker %d: %d pool-trim targets for a single-leaf worker", w.id, len(d.Cuts))
	}
	if w.pool == nil {
		rep.PoolRows = []int{0}
		return nil
	}
	if err := w.pool.Truncate(d.Cuts[0]); err != nil {
		return fmt.Errorf("cluster: worker %d: %w", w.id, err)
	}
	rep.PoolRows = []int{w.pool.Len()}
	return nil
}
