package wire

import (
	"fmt"

	"repro/internal/stats/summary"
)

// SnapGame discriminates which collection game a snapshot belongs to.
type SnapGame byte

// The checkpointable games. SnapScalar is the scalar cluster game (its
// resumable state is the two game-long streams); the LDP cluster game does
// not checkpoint. SnapRows is the shard-local row game: since workers hold
// their own kept-row pools (rowstore.Pool, DESIGN.md §14), its snapshot is
// O(dim/ε) — the robust-center vector sketch, the trailing center, and the
// per-leaf pool row counts — and never a row.
const (
	SnapScalar SnapGame = 1
	SnapRows   SnapGame = 2
)

// SnapRound mirrors one public-board round record inside a snapshot. The
// fields are collect.RoundRecord's, kept as a wire-local struct so the codec
// does not depend on the game engine.
type SnapRound struct {
	Round            int
	ThresholdPct     float64
	ThresholdValue   float64
	MeanInjectionPct float64 // NaN for poison-free rounds; shipped bit-exact
	HonestKept       int
	HonestTrimmed    int
	PoisonKept       int
	PoisonTrimmed    int
	Quality          float64
	BaselineQuality  float64
}

// SnapLoss is one recorded shard loss: which worker died in which round and
// phase, and the [Lo, Hi) slice of the round's honest batch its slot held.
type SnapLoss struct {
	Round  int
	Worker int
	Lo, Hi int
	Phase  string
}

// SnapEvent is one membership change (fleet.Event): Kind 1 = drop, 2 =
// admit, the only two kinds there are; DecodeSnapshot refuses any other.
// Snapshots carry the full log so a resumed coordinator reports the same
// loss/recovery history — and the same WholeSince — as the run it
// continues.
type SnapEvent struct {
	Kind   byte
	Epoch  int
	Round  int
	Worker int
}

// Snapshot is a checkpointed coordinator game state (KindSnapshot): enough
// to restart a scalar or row cluster game at NextRound and finish with the
// identical board — and, for the scalar game, the identical kept-stream
// estimates. The fingerprint fields (Seed through FocusWidth, plus
// LateCenter for the row game) pin the configuration the snapshot was cut
// from; a resume against a different configuration must be rejected,
// never merged.
type Snapshot struct {
	Game SnapGame

	// Configuration fingerprint.
	Seed    int64 // ShardGen master seed
	Rounds  int
	Batch   int
	Ratio   float64 // attack ratio, compared bit-exact on resume
	Epsilon float64 // summary rank-error budget
	Workers int     // transport slot count

	// SubShards/FocusTighten/FocusWidth extend the fingerprint (wire v6):
	// sub-shard count per worker and the adaptive-ε focus knobs. Both change
	// the generated stream and the sketch contents, so a resume under
	// different values must be rejected like any other mismatch.
	SubShards    int
	FocusTighten int
	FocusWidth   float64

	// NextRound is the first round the resumed coordinator plays; the
	// snapshot was written after round NextRound−1 was posted. Epoch is the
	// membership epoch in force when the snapshot was cut.
	NextRound int
	Epoch     int

	BaselineQ float64 // Quality_Evaluation(X_0), fixed pre-game

	Records []SnapRound
	Losses  []SnapLoss
	Events  []SnapEvent

	// Received/Kept are the full stream states of the scalar game's
	// game-long summaries; restoring them reproduces every later query bit
	// for bit.
	Received *summary.StreamState
	Kept     *summary.StreamState

	// Egress accounting at snapshot time. A resumed run continues these
	// counters and additionally pays its own re-configure fan-out, so its
	// totals exceed an uninterrupted run's by exactly that shipment.
	Egress       int64
	EgressConfig int64

	// Row game (SnapRows) only.
	//
	// LateCenter extends the fingerprint: whether the run plays each round
	// against the center two rounds back instead of one (the row-game
	// pipelining discipline, DESIGN.md §14). The center trajectory differs
	// between modes, so a resume across them must be rejected.
	LateCenter bool
	// KeptPoison is the running poison-rows-kept tally.
	KeptPoison int
	// VecState is the accepted-row vector sketch, one stream state per
	// coordinate — the O(dim/ε) state the robust center is queried from.
	VecState []*summary.StreamState
	// PrevCenter is the delay line's trailing tap: the center one completed
	// round before the latest, D_{NextRound−2} — the center a LateCenter
	// run plays NextRound against. The latest center is re-derived from
	// VecState on restore.
	PrevCenter []float64
	// PoolRows is the per-leaf kept-row pool manifest at snapshot time, in
	// leaf order: resume rolls each worker pool back to exactly this many
	// rows (OpPoolTrim) before playing NextRound.
	PoolRows []int
}

// EncodeSnapshot serializes a snapshot, appending to buf.
func EncodeSnapshot(buf []byte, s *Snapshot) []byte {
	buf = appendHeader(buf, KindSnapshot)
	buf = append(buf, byte(s.Game))
	buf = appendU64(buf, uint64(s.Seed))
	buf = appendU32(buf, uint32(s.Rounds))
	buf = appendU32(buf, uint32(s.Batch))
	buf = appendF64(buf, s.Ratio)
	buf = appendF64(buf, s.Epsilon)
	buf = appendU32(buf, uint32(s.Workers))
	buf = appendU32(buf, uint32(s.SubShards))
	buf = appendU32(buf, uint32(s.FocusTighten))
	buf = appendF64(buf, s.FocusWidth)
	buf = appendU32(buf, uint32(s.NextRound))
	buf = appendU32(buf, uint32(s.Epoch))
	buf = appendF64(buf, s.BaselineQ)
	buf = appendU32(buf, uint32(len(s.Records)))
	for _, rec := range s.Records {
		buf = appendU32(buf, uint32(rec.Round))
		buf = appendF64(buf, rec.ThresholdPct)
		buf = appendF64(buf, rec.ThresholdValue)
		buf = appendF64(buf, rec.MeanInjectionPct)
		buf = appendU64(buf, uint64(rec.HonestKept))
		buf = appendU64(buf, uint64(rec.HonestTrimmed))
		buf = appendU64(buf, uint64(rec.PoisonKept))
		buf = appendU64(buf, uint64(rec.PoisonTrimmed))
		buf = appendF64(buf, rec.Quality)
		buf = appendF64(buf, rec.BaselineQuality)
	}
	buf = appendU32(buf, uint32(len(s.Losses)))
	for _, l := range s.Losses {
		buf = appendU32(buf, uint32(l.Round))
		buf = appendU32(buf, uint32(l.Worker))
		buf = appendU32(buf, uint32(l.Lo))
		buf = appendU32(buf, uint32(l.Hi))
		buf = appendString(buf, l.Phase)
	}
	buf = appendU32(buf, uint32(len(s.Events)))
	for _, e := range s.Events {
		buf = append(buf, e.Kind)
		buf = appendU32(buf, uint32(e.Epoch))
		buf = appendU32(buf, uint32(e.Round))
		buf = appendU32(buf, uint32(e.Worker))
	}
	buf = appendStreamState(buf, s.Received)
	buf = appendStreamState(buf, s.Kept)
	buf = appendU64(buf, uint64(s.Egress))
	buf = appendU64(buf, uint64(s.EgressConfig))
	if s.LateCenter {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	buf = appendU64(buf, uint64(s.KeptPoison))
	buf = appendU32(buf, uint32(len(s.VecState)))
	for _, st := range s.VecState {
		buf = appendStreamState(buf, st)
	}
	buf = appendF64s(buf, s.PrevCenter)
	buf = appendIntList(buf, s.PoolRows)
	return buf
}

// DecodeSnapshot decodes an EncodeSnapshot message.
func DecodeSnapshot(buf []byte) (*Snapshot, error) {
	payload, err := checkHeader(buf, KindSnapshot)
	if err != nil {
		return nil, err
	}
	r := &reader{buf: payload}
	s := &Snapshot{
		Game:         SnapGame(r.u8("game")),
		Seed:         int64(r.u64("seed")),
		Rounds:       int(r.u32("rounds")),
		Batch:        int(r.u32("batch")),
		Ratio:        r.f64("ratio"),
		Epsilon:      r.f64("epsilon"),
		Workers:      int(r.u32("workers")),
		SubShards:    int(r.u32("sub shards")),
		FocusTighten: int(r.u32("focus tighten")),
		FocusWidth:   r.f64("focus width"),
		NextRound:    int(r.u32("next round")),
		Epoch:        int(r.u32("epoch")),
		BaselineQ:    r.f64("baseline quality"),
	}
	// Each record is exactly its fixed 76-byte body.
	nRec := r.count("records", 76)
	for i := 0; i < nRec; i++ {
		rec := SnapRound{
			Round:            int(r.u32("record round")),
			ThresholdPct:     r.f64("record threshold pct"),
			ThresholdValue:   r.f64("record threshold value"),
			MeanInjectionPct: r.f64("record injection pct"),
			HonestKept:       int(r.u64("record honest kept")),
			HonestTrimmed:    int(r.u64("record honest trimmed")),
			PoisonKept:       int(r.u64("record poison kept")),
			PoisonTrimmed:    int(r.u64("record poison trimmed")),
			Quality:          r.f64("record quality"),
			BaselineQuality:  r.f64("record baseline quality"),
		}
		if r.err != nil {
			return nil, r.err
		}
		s.Records = append(s.Records, rec)
	}
	nLoss := r.count("losses", 20)
	for i := 0; i < nLoss; i++ {
		l := SnapLoss{
			Round:  int(r.u32("loss round")),
			Worker: int(r.u32("loss worker")),
			Lo:     int(r.u32("loss lo")),
			Hi:     int(r.u32("loss hi")),
			Phase:  readString(r, "loss phase"),
		}
		if r.err != nil {
			return nil, r.err
		}
		s.Losses = append(s.Losses, l)
	}
	nEv := r.count("events", 13)
	for i := 0; i < nEv; i++ {
		e := SnapEvent{
			Kind:   r.u8("event kind"),
			Epoch:  int(r.u32("event epoch")),
			Round:  int(r.u32("event round")),
			Worker: int(r.u32("event worker")),
		}
		if r.err != nil {
			return nil, r.err
		}
		if e.Kind != 1 && e.Kind != 2 {
			return nil, fmt.Errorf("wire: snapshot membership event %d has unknown kind %d", i, e.Kind)
		}
		s.Events = append(s.Events, e)
	}
	if s.Received, err = readStreamState(r); err != nil {
		return nil, err
	}
	if s.Kept, err = readStreamState(r); err != nil {
		return nil, err
	}
	s.Egress = int64(r.u64("egress"))
	s.EgressConfig = int64(r.u64("egress config"))
	s.LateCenter = r.u8("late center") != 0
	s.KeptPoison = int(r.u64("kept poison"))
	if nVec := r.count("vector states", 1); nVec > 0 {
		s.VecState = make([]*summary.StreamState, nVec)
		for i := range s.VecState {
			if s.VecState[i], err = readStreamState(r); err != nil {
				return nil, err
			}
			if s.VecState[i] == nil {
				return nil, fmt.Errorf("wire: empty vector coordinate state %d of %d", i, nVec)
			}
		}
	}
	s.PrevCenter = r.f64s("prev center")
	s.PoolRows = readIntList(r, "pool rows")
	if err := r.finish(); err != nil {
		return nil, err
	}
	if s.Game != SnapScalar && s.Game != SnapRows {
		return nil, fmt.Errorf("wire: unknown snapshot game %d", s.Game)
	}
	if s.NextRound < 1 || s.NextRound != len(s.Records)+1 {
		return nil, fmt.Errorf("wire: snapshot next round %d with %d records", s.NextRound, len(s.Records))
	}
	return s, nil
}

// appendStreamState writes a stream-state block: a presence flag, the fixed
// scalars, the push buffer, and the level counter with nil slots
// preserved. Whether the state is one a stream could hold is for
// summary.FromState to decide.
func appendStreamState(buf []byte, st *summary.StreamState) []byte {
	if st == nil {
		return append(buf, 0)
	}
	buf = append(buf, 1)
	buf = appendF64(buf, st.Epsilon)
	buf = appendU32(buf, uint32(st.BlockSize))
	buf = appendU64(buf, uint64(st.Count))
	buf = appendF64(buf, st.Sum)
	buf = appendF64(buf, st.Min)
	buf = appendF64(buf, st.Max)
	buf = appendF64s(buf, st.BufV)
	buf = appendU32(buf, uint32(len(st.Levels)))
	for _, lv := range st.Levels {
		if lv == nil {
			buf = append(buf, 0)
			continue
		}
		buf = append(buf, 1)
		buf = appendSummaryBlock(buf, lv)
	}
	return buf
}

// readStreamState reads a block written by appendStreamState.
func readStreamState(r *reader) (*summary.StreamState, error) {
	if r.u8("stream flag") == 0 {
		if r.err != nil {
			return nil, r.err
		}
		return nil, nil
	}
	st := &summary.StreamState{
		Epsilon:   r.f64("stream epsilon"),
		BlockSize: int(r.u32("stream block size")),
		Count:     int(r.u64("stream count")),
		Sum:       r.f64("stream sum"),
		Min:       r.f64("stream min"),
		Max:       r.f64("stream max"),
	}
	st.BufV = r.f64s("stream buffer")
	nLevels := r.count("stream levels", 1)
	for l := 0; l < nLevels; l++ {
		if r.u8("level flag") == 0 {
			st.Levels = append(st.Levels, nil)
			continue
		}
		lv, err := readSummaryBlock(r)
		if err != nil {
			return nil, err
		}
		st.Levels = append(st.Levels, lv)
	}
	if r.err != nil {
		return nil, r.err
	}
	return st, nil
}

// appendString writes a u32-counted UTF-8 string.
func appendString(buf []byte, s string) []byte {
	buf = appendU32(buf, uint32(len(s)))
	return append(buf, s...)
}

// readString reads a string written by appendString.
func readString(r *reader, what string) string {
	n := r.count(what, 1)
	if r.err != nil || n == 0 {
		return ""
	}
	s := string(r.buf[r.off : r.off+n])
	r.off += n
	return s
}
