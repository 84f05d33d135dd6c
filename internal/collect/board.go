// Package collect implements the infinite collection game of §IV (Fig 3):
// a data collector gathers a fixed batch from a stream each round, an
// adversary injects poison values alongside normal users, a public board
// records every move, and both parties adapt their strategies round by
// round. Three engines share the machinery:
//
//   - Run:    scalar values (Table III, Table IV),
//   - RunRows: dataset rows trimmed by distance-from-centroid percentile
//     (Fig 4, 5, 7, 8),
//   - RunLDP: LDP-perturbed reports with manipulation attacks (Fig 9).
package collect

import (
	"math"

	"repro/internal/attack"
	"repro/internal/trim"
)

// RoundRecord is one row of the public board: everything either party can
// see about a finished round. The white-box threat model (§III-A) means
// both the collector's threshold and the adversary's injection position are
// public.
type RoundRecord struct {
	Round int // 1-based

	ThresholdPct   float64 // collector's trim percentile this round
	ThresholdValue float64 // the value it resolved to on the round data

	MeanInjectionPct float64 // mean percentile of injected poison (NaN if none)

	HonestKept    int
	HonestTrimmed int
	PoisonKept    int
	PoisonTrimmed int

	Quality         float64 // Quality_Evaluation(X_r)
	BaselineQuality float64 // Quality_Evaluation(X_0)
}

// Equal reports whether two records describe the identical round,
// treating NaN MeanInjectionPct fields (a poison-free round) as equal —
// struct comparison with == would report NaN != NaN and flag identical
// boards as diverged. Record-for-record verifications use this.
func (r RoundRecord) Equal(o RoundRecord) bool {
	if math.IsNaN(r.MeanInjectionPct) && math.IsNaN(o.MeanInjectionPct) {
		r.MeanInjectionPct, o.MeanInjectionPct = 0, 0
	}
	return r == o
}

// Board is the append-only public record of Fig 3 (steps 1 and 6).
type Board struct {
	Records []RoundRecord
}

// Post appends a round record.
func (b *Board) Post(r RoundRecord) { b.Records = append(b.Records, r) }

// Last returns the most recent record and true, or a zero record and false
// when the board is empty.
func (b *Board) Last() (RoundRecord, bool) {
	if len(b.Records) == 0 {
		return RoundRecord{}, false
	}
	return b.Records[len(b.Records)-1], true
}

// collectorView converts the last record into the collector's observation.
func (b *Board) collectorView() trim.Observation {
	last, ok := b.Last()
	if !ok {
		return trim.Observation{InjectionPct: math.NaN()}
	}
	return trim.Observation{
		Round:           last.Round,
		InjectionPct:    last.MeanInjectionPct,
		Quality:         last.Quality,
		BaselineQuality: last.BaselineQuality,
	}
}

// adversaryView converts the last record into the adversary's observation.
func (b *Board) adversaryView() attack.Observation {
	last, ok := b.Last()
	if !ok {
		return attack.Observation{ThresholdPct: math.NaN()}
	}
	return attack.Observation{Round: last.Round, ThresholdPct: last.ThresholdPct}
}

// PoisonRetention returns, across all rounds, the fraction of retained
// values that are poison — the Table III metric ("the proportion of
// untrimmed poison values in the remaining data"). NaN when nothing was
// kept.
func (b *Board) PoisonRetention() float64 {
	var kept, poison int
	for _, r := range b.Records {
		kept += r.HonestKept + r.PoisonKept
		poison += r.PoisonKept
	}
	if kept == 0 {
		return math.NaN()
	}
	return float64(poison) / float64(kept)
}

// HonestLoss returns the fraction of honest values trimmed across all
// rounds — the collector's overhead −T.
func (b *Board) HonestLoss() float64 {
	var honest, trimmed int
	for _, r := range b.Records {
		honest += r.HonestKept + r.HonestTrimmed
		trimmed += r.HonestTrimmed
	}
	if honest == 0 {
		return math.NaN()
	}
	return float64(trimmed) / float64(honest)
}
