package wire

import (
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/stats/summary"
)

// Op is the coordinator → worker operation code inside a Directive.
type Op byte

// The protocol operations. A round is two phases: Generate (the directive
// carries one derived RNG seed per cell plus compact generation parameters,
// and each worker draws and summarizes its own slice of the round locally,
// DESIGN.md §7) then Classify (broadcast the resolved threshold, get counts
// and kept-pool deltas back). Which generator a Generate runs — scalar, LDP
// or rows — was fixed by the game's Configure. Heartbeat, Hello and Join
// belong to the fleet runtime (DESIGN.md §8): Heartbeat is the supervisor's
// liveness probe, Hello the admission handshake that asks a candidate
// worker for its state, and Join the membership grant that tells an
// admitted worker which epoch it serves from.
//
// ClassifyGenerate is the pipelined round schedule (DESIGN.md §9): one
// broadcast that classifies the held round (Round, Threshold) and then
// draws the NEXT round's shard locally from Gen — the worker holds the
// generated slice as round Round+1 and its reply carries both the classify
// tallies of round Round and the summarize delta of round Round+1, so a
// steady-state round costs one RTT instead of two.
//
// Codes 2 and 3 belonged to the coordinator-fed Summarize/SummarizeRows ops
// (raw arrival slices shipped per round), retired in format 9; code 7 to the
// row game's GenerateRows, retired in format 10 (Generate serves every
// game); code 8 to the row game's distributed clean-scale pass, Scale,
// retired in format 12 (the coordinator computes the scale itself); code
// 13 to the aggregator tier's TreeInfo topology probe, retired in format
// 13 (every reply carries the subtree shape, so a Heartbeat probes it).
// They are never reused: a directive carrying any of them fails to decode.
const (
	OpConfigure        Op = 1  // set the worker's ε budget and data-plane state
	OpClassify         Op = 4  // classify the held arrivals against Threshold
	OpStop             Op = 5  // end of game; the worker may shut down
	OpGenerate         Op = 6  // draw the slot's cells locally from Gen (rows: around Center), then summarize
	OpHeartbeat        Op = 9  // liveness probe; reply echoes state, mutates nothing
	OpHello            Op = 10 // admission handshake: report Configured, mutate nothing
	OpJoin             Op = 11 // membership grant: serve shard slots from Epoch on
	OpClassifyGenerate Op = 12 // classify round Round, then generate round Round+1 from Gen
	OpFetchRows        Op = 14 // page [Lo,Hi) of leaf Leaf's kept-row pool (game-end fan-in)
	OpPoolTrim         Op = 15 // roll kept-row pools back to per-leaf row counts (resume)
)

// retiredOp reports whether o is a retired op code.
func retiredOp(o Op) bool { return o == 2 || o == 3 || o == 7 || o == 8 || o == 13 }

func (o Op) valid() bool { return o >= OpConfigure && o <= OpPoolTrim && !retiredOp(o) }

// Counts are one shard's classification tallies for a round — the partial
// RoundRecord the coordinator reduces across shards.
type Counts struct {
	HonestKept    int
	HonestTrimmed int
	PoisonKept    int
	PoisonTrimmed int
}

// GenSpec is the compact generation recipe inside a Generate directive:
// everything a worker needs to draw its shard of one round's arrivals from
// derived RNG streams. It is O(cells) in the fleet shape and O(1) in the
// batch size — shipping it instead of raw arrivals is what turns per-round
// coordinator egress from O(batch) into O(workers).
type GenSpec struct {
	// Cells are the slot's draws, at least one: the consecutive run of the
	// flat (leaf, sub-shard) cell space the receiving subtree covers. A
	// worker draws each cell from its own seed (in parallel when there are
	// several) and folds the cell summaries strictly in cell order, so its
	// report is independent of how many goroutines ran it; an aggregator
	// slices the run positionally among its children.
	Cells []Cell

	// InjectKind/InjectP/InjectLo/InjectHi mirror attack.InjectionSpec —
	// the closed-form injection distribution poison percentiles are drawn
	// from.
	InjectKind                  byte
	InjectP, InjectLo, InjectHi float64

	// Jitter is the tie-breaking jitter width of the percentile scale.
	Jitter float64

	// Scale is the round's clean-distance summary — the coordinator's
	// dataset measured from the round's center — that row-game poison
	// percentiles resolve against (nil for the scalar and LDP games, which
	// resolve on the reference configured once).
	Scale *summary.Summary
}

// Cell is one slot of the flat (leaf, sub-shard) seed space: its derived
// RNG seed (stats.DeriveSeed — the worker never learns the master seed) and
// the honest and poison arrivals it draws, poison after honest.
type Cell struct {
	Seed    int64
	HonestN int
	PoisonN int
}

// Report is one worker → coordinator message: the reply to every directive.
// Which fields are populated depends on the phase — Sum/Count/ValueSum plus
// PctSums/InputSum after a Generate; after a classify, Counts and
// KeptCount/KeptSum in every game, plus the Kept summary in the scalar game
// and PoolRows/Vecs in the row game. Exact counts and sums ride alongside
// each sketch so the coordinator's Count/Mean estimators stay exact across
// shard hops (summary.Stream.AbsorbCounted).
type Report struct {
	Round  int
	Worker int

	// Epoch is the membership epoch the worker was last admitted at (OpJoin);
	// 0 for workers of a game that never ran fleet supervision. Echoed in
	// every report so a stale worker is detectable at the coordinator.
	Epoch int

	// Trace echoes Directive.Trace — the coordinator-minted round trace ID —
	// so phase timings join back to the round fan-out they measured.
	Trace uint64

	// GenerateNanos/SummarizeNanos/ClassifyNanos are the worker-side
	// wall-clock spent in each phase of this directive, in nanoseconds.
	// Purely observational: the coordinator subtracts the busiest worker
	// from the fan-out elapsed time to estimate the network share and rank
	// stragglers (DESIGN.md §11). A ClassifyGenerate reply fills all three.
	GenerateNanos  int64
	SummarizeNanos int64
	ClassifyNanos  int64

	// Configured reports whether the worker holds data-plane state (set by
	// Configure, lost by a crash) — the Hello/Heartbeat reply field the
	// supervisor's re-admission decision turns on: a re-spawned worker
	// answers false and is re-configured before it rejoins.
	Configured bool

	// Epsilon is the rank-error budget of the shipped sketches, resolved
	// at configure (a configure asking for 0 gets the default); the
	// coordinator's merged budget is the max across shards.
	Epsilon float64

	// Generate phase: the shard's summary of the arrivals it drew.
	Sum      *summary.Summary
	Count    int     // arrivals behind Sum (exact)
	ValueSum float64 // Σ of summarized values (exact)

	// InputSum is the LDP game's Σ honest inputs behind the perturbed
	// reports of a Generate.
	InputSum float64

	// PctSums are the injection-percentile sums a Generate drew, one per
	// directive cell in cell order (aggregators concatenate in leaf order).
	// The coordinator folds the flat cell list in slot order, so the
	// recorded percentile mean is bit-identical however the cells are
	// spread over workers, sub-shards and aggregators.
	PctSums []float64

	// Classify phase. KeptCount and KeptSum are the exact count and sum of
	// the values this shard kept (row game: distances from the center), in
	// every game. Kept summarizes those values in the scalar game only, the
	// one game whose coordinator absorbs them into a stream; the LDP
	// coordinator folds KeptCount/KeptSum and the row coordinator Vecs, so
	// their workers leave Kept nil.
	Counts    Counts
	Kept      *summary.Summary
	KeptCount int
	KeptSum   float64

	// KeptRows/KeptLabels are one page of a worker-held kept-row pool —
	// the reply to OpFetchRows (labels ride along when the dataset is
	// labeled). Since format 8 classify replies no longer carry them:
	// workers retain their own kept rows (rowstore.Pool) and the
	// coordinator pages the collected data out once, at game end, so
	// per-round kept-row ingress is zero and round egress stays O(1/ε).
	KeptRows   [][]float64
	KeptLabels []int

	// PoolRows are the per-leaf kept-row pool totals, in leaf order (a
	// plain worker reports one entry; aggregators concatenate). Classify
	// replies of the shard-local row game carry them so the coordinator
	// can page pools (OpFetchRows) and checkpoint their manifest without
	// ever holding the rows; OpFetchRows and OpPoolTrim replies echo the
	// (resulting) totals.
	PoolRows []int

	// Aggregator tier (DESIGN.md §13). A report forwarded by an aggregator
	// stands for a whole subtree of worker slots:
	//
	//   - Leaves is the live leaf-worker count behind this report, at least
	//     1 on every reply: a plain worker is a one-leaf subtree and
	//     reports 1 (DecodeReport refuses 0).
	//   - Height is the merge-graph height above the leaves (worker: 0).
	//   - LostLeaves lists leaf offsets — relative to the leaf order this
	//     directive's fan-out covered — whose shards were lost mid-call
	//     (a dead child subtree, or a grandchild loss remapped upward).
	//   - Vecs are the row game's per-leaf accepted-row vector deltas in
	//     leaf order: a plain worker ships at most one, and aggregators
	//     concatenate rather than merge so the coordinator absorbs exactly
	//     one delta per leaf, in leaf order — Stream.AbsorbCounted
	//     compresses per absorbed delta, so only per-leaf absorption keeps
	//     the robust center bit-identical to the flat run.
	//   - MergeNanos[l] is the merge wall-clock at tree level l+1 (leaf-most
	//     aggregator level first): each aggregator folds its children's
	//     lists element-wise by max and appends its own merge time.
	Leaves     int
	Height     int
	LostLeaves []int
	Vecs       []*VectorDelta
	MergeNanos []int64
}

// EncodeReport serializes a shard report, appending to buf.
func EncodeReport(buf []byte, rep *Report) []byte {
	buf = appendHeader(buf, KindReport)
	buf = appendU32(buf, uint32(rep.Round))
	buf = appendU32(buf, uint32(rep.Worker))
	buf = appendU32(buf, uint32(rep.Epoch))
	buf = appendU64(buf, rep.Trace)
	buf = appendU64(buf, uint64(rep.GenerateNanos))
	buf = appendU64(buf, uint64(rep.SummarizeNanos))
	buf = appendU64(buf, uint64(rep.ClassifyNanos))
	if rep.Configured {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	buf = appendF64(buf, rep.Epsilon)
	buf = appendU64(buf, uint64(rep.Count))
	buf = appendF64(buf, rep.ValueSum)
	buf = appendSummaryBlock(buf, rep.Sum)
	buf = appendF64s(buf, rep.PctSums)
	buf = appendF64(buf, rep.InputSum)
	buf = appendU64(buf, uint64(rep.Counts.HonestKept))
	buf = appendU64(buf, uint64(rep.Counts.HonestTrimmed))
	buf = appendU64(buf, uint64(rep.Counts.PoisonKept))
	buf = appendU64(buf, uint64(rep.Counts.PoisonTrimmed))
	buf = appendU64(buf, uint64(rep.KeptCount))
	buf = appendF64(buf, rep.KeptSum)
	buf = appendSummaryBlock(buf, rep.Kept)
	buf = appendRowsBlock(buf, rep.KeptRows)
	buf = appendIntList(buf, rep.KeptLabels)
	buf = appendIntList(buf, rep.PoolRows)
	buf = appendU32(buf, uint32(rep.Leaves))
	buf = appendU32(buf, uint32(rep.Height))
	buf = appendIntList(buf, rep.LostLeaves)
	buf = appendU32(buf, uint32(len(rep.Vecs)))
	for _, d := range rep.Vecs {
		buf = appendVectorDelta(buf, d)
	}
	buf = appendU32(buf, uint32(len(rep.MergeNanos)))
	for _, n := range rep.MergeNanos {
		buf = appendU64(buf, uint64(n))
	}
	return buf
}

// appendVectorDelta writes a vector block: u32 dim, ε, the row count, then
// per coordinate its sum and summary block. Workers snapshot their live
// vector with DeltaFromVector and encode that; aggregators forward decoded
// deltas unchanged, and Encode∘Decode round-trips a Report.
func appendVectorDelta(buf []byte, d *VectorDelta) []byte {
	buf = appendU32(buf, uint32(len(d.Dims)))
	buf = appendF64(buf, d.Epsilon)
	buf = appendU64(buf, uint64(d.Count))
	for i := range d.Dims {
		buf = appendF64(buf, d.Sums[i])
		buf = appendSummaryBlock(buf, d.Dims[i])
	}
	return buf
}

// DecodeReport decodes an EncodeReport message.
func DecodeReport(buf []byte) (*Report, error) {
	payload, err := checkHeader(buf, KindReport)
	if err != nil {
		return nil, err
	}
	r := &reader{buf: payload}
	rep := &Report{
		Round:          int(r.u32("round")),
		Worker:         int(r.u32("worker")),
		Epoch:          int(r.u32("epoch")),
		Trace:          r.u64("trace"),
		GenerateNanos:  int64(r.u64("generate nanos")),
		SummarizeNanos: int64(r.u64("summarize nanos")),
		ClassifyNanos:  int64(r.u64("classify nanos")),
		Configured:     r.u8("configured") != 0,
		Epsilon:        r.f64("epsilon"),
	}
	rep.Count = int(r.u64("count"))
	rep.ValueSum = r.f64("value sum")
	if rep.Sum, err = readSummaryBlock(r); err != nil {
		return nil, err
	}
	rep.PctSums = r.f64s("pct sums")
	rep.InputSum = r.f64("input sum")
	rep.Counts.HonestKept = int(r.u64("honest kept"))
	rep.Counts.HonestTrimmed = int(r.u64("honest trimmed"))
	rep.Counts.PoisonKept = int(r.u64("poison kept"))
	rep.Counts.PoisonTrimmed = int(r.u64("poison trimmed"))
	rep.KeptCount = int(r.u64("kept count"))
	rep.KeptSum = r.f64("kept sum")
	if rep.Kept, err = readSummaryBlock(r); err != nil {
		return nil, err
	}
	rep.KeptRows = readRowsBlock(r, "kept rows")
	rep.KeptLabels = readIntList(r, "kept label")
	rep.PoolRows = readIntList(r, "pool rows")
	rep.Leaves = int(r.u32("leaves"))
	if r.err == nil && rep.Leaves == 0 {
		return nil, fmt.Errorf("wire: report claims 0 leaves (every reply stands for at least one)")
	}
	rep.Height = int(r.u32("height"))
	rep.LostLeaves = readIntList(r, "lost leaf")
	if nVecs := r.count("leaf vectors", 16); nVecs > 0 {
		rep.Vecs = make([]*VectorDelta, nVecs)
		for i := range rep.Vecs {
			if rep.Vecs[i], err = readVectorBlock(r); err != nil {
				return nil, err
			}
			if rep.Vecs[i] == nil {
				return nil, fmt.Errorf("wire: empty leaf vector delta %d of %d", i, nVecs)
			}
		}
	}
	if nMerge := r.count("merge nanos", 8); nMerge > 0 {
		rep.MergeNanos = make([]int64, nMerge)
		for i := range rep.MergeNanos {
			rep.MergeNanos[i] = int64(r.u64("merge nanos"))
		}
	}
	if err := r.finish(); err != nil {
		return nil, err
	}
	return rep, nil
}

// Directive is one coordinator → worker message. Which fields are
// meaningful depends on Op:
//
//   - Configure carries Epsilon plus the one-time data-plane state of the
//     game: RefSorted (scalar), Pool/MechKind/MechEps (LDP; MechK too for
//     GRR), or Rows/Labels/Clusters/PoisonLabel (row dataset).
//   - Generate carries Gen (and, for rows, Center) — the O(1) round
//     directive.
//   - Classify carries Threshold (and Pct for the record); Stop nothing.
//   - Heartbeat and Hello carry nothing beyond the op; Join carries Epoch.
//   - FetchRows carries Leaf (which kept-row pool) and the page range
//     [Lo, Hi) in pool row indices; PoolTrim carries only Cuts, the
//     per-leaf pool row targets to roll back to (one entry per leaf, leaf
//     order).
type Directive struct {
	Op    Op
	Round int

	// Epoch is the membership epoch a Join grants (0 = the game's initial
	// admission; a re-join mid-game always carries a later epoch).
	Epoch int

	// Trace is the round's trace ID (obs.TraceID: a pure function of the
	// round number), minted once per fan-out at the coordinator and echoed
	// by every report, so per-worker phase timings attribute to the round
	// that measured them. 0 when the coordinator runs without tracing.
	Trace uint64

	Epsilon float64 // Configure: worker sketch budget

	Rows   Matrix    // Configure: the row game's dataset
	Center []float64 // Generate (rows): the center the round generates around

	Pct       float64 // Classify: the percentile the threshold resolved from
	Threshold float64 // Classify: resolved trim threshold (value domain)

	// FocusPct/FocusWidth/FocusTighten ask the worker to keep its summarize
	// sketches tighten× denser in the rank window FocusPct ± FocusWidth —
	// the adaptive-ε focus around the trim threshold (DESIGN.md §12).
	// FocusTighten ≤ 1 means no focus (the fields ride on generate
	// directives; classify ignores them).
	FocusPct     float64
	FocusWidth   float64
	FocusTighten int

	// Configure: the game's one-time data-plane state.
	Pool        []float64 // sorted clean input pool (LDP/GRR); empty in a scalar configure
	RefSorted   []float64 // sorted clean reference (scalar: the honest pool and the percentile scale)
	Labels      []uint32  // dataset labels, one per row (row game; nil when unlabeled)
	Clusters    int       // row game: class count for random poison labels
	PoisonLabel int       // row game: fixed poison label (−1: random class)
	MechKind    byte      // LDP mechanism code (0: not an LDP game)
	MechEps     float64   // LDP mechanism privacy budget
	MechK       int       // LDP mechanism arity (GRR category count; 0 otherwise)

	// Lo, Hi: the page range of a FetchRows.
	Lo, Hi int

	// Generate/ClassifyGenerate: the generation recipe.
	Gen *GenSpec

	// Cuts are a PoolTrim's per-leaf pool row targets, in leaf order (len =
	// the receiving subtree's leaves; a plain worker takes exactly one).
	// The aggregator slices them positionally among its children. Nil
	// everywhere else.
	Cuts []int

	// Leaf addresses one kept-row pool in a FetchRows directive: the leaf
	// offset relative to the receiving subtree's leaf order (a plain worker
	// is its own single leaf, 0). Aggregators rebase it while routing the
	// fetch to the child that owns the leaf.
	Leaf int
}

// Matrix is a row matrix held flat: Len rows of Dim coordinates each,
// row-major in Data. It is the configure's dataset: a decoded one is a view
// of the message where the wire can view it, with no per-row slice headers.
// The zero Matrix has no rows.
type Matrix struct {
	Dim  int
	Data []float64
}

// MatrixOf copies rows, each len(rows[0]) wide, into one flat Matrix.
func MatrixOf(rows [][]float64) Matrix {
	if len(rows) == 0 {
		return Matrix{}
	}
	m := Matrix{Dim: len(rows[0]), Data: make([]float64, 0, len(rows)*len(rows[0]))}
	for _, row := range rows {
		m.Data = append(m.Data, row...)
	}
	return m
}

// Len reports the number of rows.
func (m Matrix) Len() int {
	if m.Dim <= 0 {
		return 0
	}
	return len(m.Data) / m.Dim
}

// Row returns row i, a slice of Data capacity-capped at its Dim
// coordinates, so an append cannot reach the next row.
func (m Matrix) Row(i int) []float64 {
	return m.Data[i*m.Dim : (i+1)*m.Dim : (i+1)*m.Dim]
}

// EncodeDirective serializes a directive, appending to buf. A configure's
// bulk blocks — Rows, Pool, RefSorted and Labels — are padded so their
// elements start aligned to their size from the message start
// (buf[len(buf)] on entry); DecodeDirective views them in place when the
// message lies 8-byte aligned in memory, as a fresh EncodeDirective(nil, …)
// does.
//
// A configure's bulk blocks run to megabytes, so the output grows once for
// the whole message instead of block by block, which would leave it in an
// array up to a quarter longer than itself for as long as it is kept.
func EncodeDirective(buf []byte, d *Directive) []byte {
	if bulk := directiveBulk(d); bulk > 0 {
		rest := *d
		rest.Rows, rest.Pool, rest.RefSorted, rest.Labels = Matrix{}, nil, nil, nil
		buf = reserve(buf, len(EncodeDirective(nil, &rest))+bulk)
	}
	start := len(buf)
	buf = appendHeader(buf, KindDirective)
	buf = append(buf, byte(d.Op))
	buf = appendU32(buf, uint32(d.Round))
	buf = appendU32(buf, uint32(d.Epoch))
	buf = appendU64(buf, d.Trace)
	buf = appendF64(buf, d.Epsilon)
	buf = appendF64(buf, d.Pct)
	buf = appendF64(buf, d.Threshold)
	buf = appendF64(buf, d.FocusPct)
	buf = appendF64(buf, d.FocusWidth)
	buf = appendU32(buf, uint32(d.FocusTighten))
	buf = appendMatrix(buf, start, d.Rows)
	buf = appendF64s(buf, d.Center)
	buf = appendPaddedF64s(buf, start, d.Pool)
	buf = appendPaddedF64s(buf, start, d.RefSorted)
	buf = appendPaddedU32s(buf, start, d.Labels)
	buf = appendU32(buf, uint32(d.Clusters))
	buf = appendU64(buf, uint64(int64(d.PoisonLabel)))
	buf = append(buf, d.MechKind)
	buf = appendF64(buf, d.MechEps)
	buf = appendU32(buf, uint32(d.MechK))
	buf = appendU32(buf, uint32(d.Lo))
	buf = appendU32(buf, uint32(d.Hi))
	if d.Gen == nil {
		buf = append(buf, 0)
	} else {
		buf = append(buf, 1)
		buf = appendU32(buf, uint32(len(d.Gen.Cells)))
		for _, c := range d.Gen.Cells {
			buf = appendU64(buf, uint64(c.Seed))
			buf = appendU32(buf, uint32(c.HonestN))
			buf = appendU32(buf, uint32(c.PoisonN))
		}
		buf = append(buf, d.Gen.InjectKind)
		buf = appendF64(buf, d.Gen.InjectP)
		buf = appendF64(buf, d.Gen.InjectLo)
		buf = appendF64(buf, d.Gen.InjectHi)
		buf = appendF64(buf, d.Gen.Jitter)
		buf = appendSummaryBlock(buf, d.Gen.Scale)
	}
	buf = appendIntList(buf, d.Cuts)
	buf = appendU32(buf, uint32(d.Leaf))
	return buf
}

// directiveBulk returns how many bytes d's non-empty bulk blocks add to its
// message beyond their empty forms: their elements, and at most the pad
// that aligns each.
func directiveBulk(d *Directive) int {
	n := 0
	if rows := d.Rows.Len(); rows > 0 {
		n += 8*rows*d.Rows.Dim + 7
	}
	for _, vs := range [][]float64{d.Pool, d.RefSorted} {
		if len(vs) > 0 {
			n += 8*len(vs) + 7
		}
	}
	if len(d.Labels) > 0 {
		n += 4*len(d.Labels) + 3
	}
	return n
}

// DecodeDirective decodes an EncodeDirective message. A configure's Rows
// data, Pool, RefSorted and Labels are read-only views of buf when the host
// is little-endian and their elements lie aligned in memory (blockView),
// and copies otherwise: the caller must neither modify nor reuse buf while
// the directive, or anything that kept one of those blocks, is alive.
// Center and every other field are copied.
func DecodeDirective(buf []byte) (*Directive, error) {
	payload, err := checkHeader(buf, KindDirective)
	if err != nil {
		return nil, err
	}
	r := &reader{buf: payload}
	d := &Directive{
		Op:    Op(r.u8("op")),
		Round: int(r.u32("round")),
		Epoch: int(r.u32("epoch")),
		Trace: r.u64("trace"),
	}
	d.Epsilon = r.f64("epsilon")
	d.Pct = r.f64("pct")
	d.Threshold = r.f64("threshold")
	d.FocusPct = r.f64("focus pct")
	d.FocusWidth = r.f64("focus width")
	d.FocusTighten = int(r.u32("focus tighten"))
	d.Rows = readMatrix(r, "rows")
	d.Center = r.f64s("center")
	d.Pool = readPadded(r, "pool", 8, getF64)
	d.RefSorted = readPadded(r, "reference", 8, getF64)
	d.Labels = readPadded(r, "label", 4, binary.LittleEndian.Uint32)
	d.Clusters = int(r.u32("clusters"))
	d.PoisonLabel = int(int64(r.u64("poison label")))
	d.MechKind = r.u8("mechanism kind")
	d.MechEps = r.f64("mechanism epsilon")
	d.MechK = int(r.u32("mechanism arity"))
	d.Lo = int(r.u32("lo"))
	d.Hi = int(r.u32("hi"))
	if r.u8("gen flag") == 1 {
		g := &GenSpec{Cells: make([]Cell, r.count("gen cells", 16))}
		if r.err == nil && len(g.Cells) == 0 {
			return nil, fmt.Errorf("wire: generator spec without cells")
		}
		for i := range g.Cells {
			g.Cells[i].Seed = int64(r.u64("gen cell seed"))
			g.Cells[i].HonestN = int(r.u32("gen cell honest count"))
			g.Cells[i].PoisonN = int(r.u32("gen cell poison count"))
		}
		g.InjectKind = r.u8("gen inject kind")
		g.InjectP = r.f64("gen inject p")
		g.InjectLo = r.f64("gen inject lo")
		g.InjectHi = r.f64("gen inject hi")
		g.Jitter = r.f64("gen jitter")
		if g.Scale, err = readSummaryBlock(r); err != nil {
			return nil, err
		}
		d.Gen = g
	}
	d.Cuts = readIntList(r, "leaf cut")
	d.Leaf = int(r.u32("fetch leaf"))
	if err := r.finish(); err != nil {
		return nil, err
	}
	if retiredOp(d.Op) {
		return nil, fmt.Errorf("wire: directive op %d is retired (format 14 serves only the shard-local data plane, every game through Generate, with the clean scale computed at the coordinator and the subtree shape on every reply)", d.Op)
	}
	if !d.Op.valid() {
		return nil, fmt.Errorf("wire: unknown directive op %d", d.Op)
	}
	return d, nil
}

// appendMatrix writes a configure's dataset: u32 row count, u32 dim, then,
// when there are rows, the pad to an 8-byte boundary from the message that
// starts at buf[start] and the elements row-major. A matrix without rows
// encodes as count 0 and dim 0.
func appendMatrix(buf []byte, start int, m Matrix) []byte {
	n := m.Len()
	if n == 0 {
		return appendU32(appendU32(buf, 0), 0)
	}
	buf = appendU32(buf, uint32(n))
	buf = appendU32(buf, uint32(m.Dim))
	return appendF64Block(appendPad(buf, start, 8), m.Data[:n*m.Dim])
}

// readMatrix reads a block written by appendMatrix. Its Data is a view of
// the message when the wire can view it and a copy otherwise (paddedBlock);
// a count of 0 decodes to the zero Matrix. A corrupt count or dim fails
// with ErrTruncated before allocating.
func readMatrix(r *reader, what string) Matrix {
	nRows, dim := readRowsPrefix(r, what)
	if nRows == 0 {
		return Matrix{}
	}
	data := paddedBlock(r, what, nRows*dim, 8, getF64)
	if data == nil {
		return Matrix{}
	}
	return Matrix{Dim: dim, Data: data}
}

// readRowsPrefix reads a row block's u32 row count and u32 dim and checks
// that the rest of the payload can hold that many elements. It returns 0
// rows for an empty block and on failure.
func readRowsPrefix(r *reader, what string) (nRows, dim int) {
	nRows = r.count(what, 4)
	dim = int(r.u32(what))
	if r.err != nil || nRows == 0 {
		return 0, 0
	}
	if dim <= 0 || dim > (len(r.buf)-r.off)/8/nRows {
		r.fail(what + " elements")
		return 0, 0
	}
	return nRows, dim
}

// appendRowsBlock writes a kept-row page: u32 row count, u32 dim, then the
// elements row-major, unpadded. Nil and empty both encode as count 0.
func appendRowsBlock(buf []byte, rows [][]float64) []byte {
	buf = appendU32(buf, uint32(len(rows)))
	dim := 0
	if len(rows) > 0 {
		dim = len(rows[0])
	}
	buf = appendU32(buf, uint32(dim))
	buf = slices.Grow(buf, 8*dim*len(rows))
	for _, row := range rows {
		buf = appendF64Block(buf, row)
	}
	return buf
}

// readRowsBlock reads a block written by appendRowsBlock into row slices
// that share one freshly copied backing array, capacity-capped per row.
func readRowsBlock(r *reader, what string) [][]float64 {
	nRows, dim := readRowsPrefix(r, what)
	if nRows == 0 {
		return nil
	}
	flat := make([]float64, nRows*dim)
	getF64s(flat, r.next(8*len(flat)))
	rows := make([][]float64, nRows)
	for i := range rows {
		rows[i] = flat[i*dim : (i+1)*dim : (i+1)*dim]
	}
	return rows
}

// appendIntList writes a u32-counted list of non-negative ints as u32s.
func appendIntList(buf []byte, xs []int) []byte {
	buf, b := extend(appendU32(buf, uint32(len(xs))), 4*len(xs))
	for i, x := range xs {
		binary.LittleEndian.PutUint32(b[4*i:], uint32(x))
	}
	return buf
}

// readIntList reads a list written by appendIntList; empty decodes to nil.
func readIntList(r *reader, what string) []int {
	n := r.count(what, 4)
	if n == 0 {
		return nil
	}
	b := r.next(4 * n)
	out := make([]int, n)
	for i := range out {
		out[i] = int(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return out
}
