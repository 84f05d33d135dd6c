package repro_test

import (
	"io"
	"math"
	"testing"

	"repro/internal/attack"
	"repro/internal/collect"
	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/game"
	"repro/internal/lagrangian"
	"repro/internal/ldp"
	"repro/internal/stats"
	"repro/internal/stats/summary"
	"repro/internal/trim"
)

// Each benchmark regenerates one of the paper's tables or figures at
// benchmark scale (see EXPERIMENTS.md for paper-scale instructions and the
// paper-vs-measured comparison). Run with:
//
//	go test -bench=. -benchmem
//
// Table/figure benches report ns/op for a full experiment regeneration;
// ablation benches at the bottom compare design alternatives called out in
// DESIGN.md §5.

func benchScale() experiments.Scale {
	sc := experiments.Quick
	sc.Repetitions = 1
	sc.Rounds = 5
	sc.Batch = 150
	return sc
}

func BenchmarkTableI(b *testing.B) {
	p := game.UltimatumPayoffs{PBar: 100, TBar: 50, P: 3, T: 1}
	for i := 0; i < b.N; i++ {
		res, err := experiments.TableI(p)
		if err != nil {
			b.Fatal(err)
		}
		res.Print(io.Discard)
	}
}

func BenchmarkTableII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.TableII(1, false)
		if err != nil {
			b.Fatal(err)
		}
		res.Print(io.Discard)
	}
}

func BenchmarkTableIII(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		res, err := experiments.TableIII(sc)
		if err != nil {
			b.Fatal(err)
		}
		res.Print(io.Discard)
	}
}

func BenchmarkTableIV(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.TableIV(0.9)
		if err != nil {
			b.Fatal(err)
		}
		res.Print(io.Discard)
	}
}

func BenchmarkFig4(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig4(sc, 2)
		if err != nil {
			b.Fatal(err)
		}
		res.Print(io.Discard)
	}
}

func BenchmarkFig5(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig5(sc, 2)
		if err != nil {
			b.Fatal(err)
		}
		res.Print(io.Discard)
	}
}

func BenchmarkFig6(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig6(sc)
		if err != nil {
			b.Fatal(err)
		}
		res.Print(io.Discard)
	}
}

func BenchmarkFig7(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig7(sc)
		if err != nil {
			b.Fatal(err)
		}
		res.Print(io.Discard)
	}
}

func BenchmarkFig8(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig8(sc)
		if err != nil {
			b.Fatal(err)
		}
		res.Print(io.Discard)
	}
}

func BenchmarkFig9(b *testing.B) {
	sc := benchScale()
	sc.Batch = 500
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig9(sc, []float64{0.2}, []float64{1, 3, 5})
		if err != nil {
			b.Fatal(err)
		}
		res.Print(io.Discard)
	}
}

// --- Ablation benches (DESIGN.md §5) ---

// BenchmarkThresholdResolution is the headline comparison for the
// streaming-quantile refactor: per-round threshold resolution over a
// received stream arriving in 100k-value batches, exact copy-and-sort
// (the seed behavior — the pool is re-sorted from scratch every round)
// against the incremental ε-approximate summary (the new default — each
// round pushes its batch and queries in O(1/ε)).
//
// Run with: go test -bench=ThresholdResolution -benchmem
func BenchmarkThresholdResolution(b *testing.B) {
	const (
		batch  = 100000
		rounds = 20 // the paper's game horizon (§VI uses 20-25 rounds)
	)
	data := stats.NormalSlice(stats.NewRand(1), rounds*batch, 0, 1)

	b.Run("ExactSort", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pool := make([]float64, 0, rounds*batch)
			for r := 0; r < rounds; r++ {
				pool = append(pool, data[r*batch:(r+1)*batch]...)
				if v := stats.Quantile(pool, 0.9); math.IsNaN(v) {
					b.Fatal("NaN threshold")
				}
			}
		}
	})
	b.Run("Summary", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			st, err := summary.New(0, rounds*batch)
			if err != nil {
				b.Fatal(err)
			}
			for r := 0; r < rounds; r++ {
				for _, v := range data[r*batch : (r+1)*batch] {
					st.Push(v)
				}
				if v := st.Query(0.9); math.IsNaN(v) {
					b.Fatal("NaN threshold")
				}
			}
		}
	})
}

// BenchmarkThresholdSingleBatch isolates one round at batch 100k: one
// exact quantile (copy + sort) against one summary build + query. The
// cumulative benchmark above is the game's real access pattern; this one
// bounds the worst case for the summary (no amortization across rounds).
func BenchmarkThresholdSingleBatch(b *testing.B) {
	const batch = 100000
	data := stats.NormalSlice(stats.NewRand(1), batch, 0, 1)
	b.Run("ExactSort", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			stats.Quantile(data, 0.9)
		}
	})
	b.Run("Summary", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			st, err := summary.New(0, batch)
			if err != nil {
				b.Fatal(err)
			}
			for _, v := range data {
				st.Push(v)
			}
			st.Query(0.9)
		}
	})
}

// BenchmarkPercentileExact vs BenchmarkPercentileP2: exact sort-based
// percentile tracking against the O(1)-space streaming P² estimator.
func BenchmarkPercentileExact(b *testing.B) {
	rng := stats.NewRand(1)
	xs := stats.NormalSlice(rng, 100000, 0, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stats.Quantile(xs, 0.97)
	}
}

// BenchmarkPercentileP2 times the P² estimator that DESIGN.md §5 rules
// out as the system estimator; it is staged for deletion with P² itself.
func BenchmarkPercentileP2(b *testing.B) {
	rng := stats.NewRand(1)
	xs := stats.NormalSlice(rng, 100000, 0, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := stats.NewP2Quantile(0.97)
		if err != nil {
			b.Fatal(err)
		}
		for _, x := range xs {
			p.Add(x)
		}
		_ = p.Value()
	}
}

// BenchmarkLDPDuchi vs BenchmarkLDPPiecewise: mechanism throughput for the
// Fig 9 pipeline.
func BenchmarkLDPDuchi(b *testing.B) {
	mech, err := ldp.NewDuchi(2)
	if err != nil {
		b.Fatal(err)
	}
	rng := stats.NewRand(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mech.Perturb(rng, 0.3)
	}
}

func BenchmarkLDPPiecewise(b *testing.B) {
	mech, err := ldp.NewPiecewise(2)
	if err != nil {
		b.Fatal(err)
	}
	rng := stats.NewRand(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mech.Perturb(rng, 0.3)
	}
}

// BenchmarkEMFilter: cost of one EM fit at Fig 9's bin resolution.
func BenchmarkEMFilter(b *testing.B) {
	mech, err := ldp.NewPiecewise(2)
	if err != nil {
		b.Fatal(err)
	}
	rng := stats.NewRand(1)
	reports := make([]float64, 20000)
	for i := range reports {
		reports[i] = mech.Perturb(rng, stats.Clamp(stats.Normal(rng, 0, 0.3), -1, 1))
	}
	filter, err := ldp.NewEMFilter(mech, 32, 64)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := filter.Fit(reports); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEulerLagrange: free-system integration (Theorem 1 check, A1).
func BenchmarkEulerLagrange(b *testing.B) {
	sys, err := lagrangian.NewFreeSystem(1, 1)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := lagrangian.Integrate(sys.Acceleration(),
			[]float64{0, 0}, []float64{1, -1}, 0, 100, 1000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOscillator: coupled-oscillator integration (Theorem 4 check, A2).
func BenchmarkOscillator(b *testing.B) {
	sys, err := lagrangian.NewElasticSystem(1, 2, 0.5)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := lagrangian.Integrate(sys.Acceleration(),
			[]float64{1, 0}, []float64{0, 0}, 0, 100, 1000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTheorem3: closed-form compliance condition vs explicit
// discounted summation (A3).
func BenchmarkTheorem3(b *testing.B) {
	rp := game.RepeatedParams{GC: 2, GA: 4, D: 0.9, P: 0.3}
	for i := 0; i < b.N; i++ {
		if _, err := rp.MaxDelta(); err != nil {
			b.Fatal(err)
		}
		rp.SimulateComply(0.5, 200)
		rp.SimulateDefect(200)
	}
}

// BenchmarkCollectionRound: one round of the scalar collection game — the
// per-round hot path of the online defense.
func BenchmarkCollectionRound(b *testing.B) {
	ref := stats.NormalSlice(stats.NewRand(1), 5000, 0, 1)
	honest, err := collect.PoolSampler(ref)
	if err != nil {
		b.Fatal(err)
	}
	static, err := trim.NewStatic("s", 0.9)
	if err != nil {
		b.Fatal(err)
	}
	adv, err := attack.NewPoint("p", 0.99)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := collect.Run(collect.Config{
			Rounds: 1, Batch: 1000, AttackRatio: 0.2,
			Reference: ref, Honest: honest,
			Collector: static, Adversary: adv,
			Rng: stats.NewRand(int64(i)),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrimSemantics: value-domain (§III-C) vs batch-fraction (Fig 3)
// threshold resolution — the two readings of the paper's trimming rule.
func BenchmarkTrimSemantics(b *testing.B) {
	ref := stats.NormalSlice(stats.NewRand(1), 5000, 0, 1)
	honest, err := collect.PoolSampler(ref)
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, onBatch bool) {
		for i := 0; i < b.N; i++ {
			static, err := trim.NewStatic("s", 0.9)
			if err != nil {
				b.Fatal(err)
			}
			adv, err := attack.NewPoint("p", 0.99)
			if err != nil {
				b.Fatal(err)
			}
			_, err = collect.Run(collect.Config{
				Rounds: 10, Batch: 500, AttackRatio: 0.2,
				Reference: ref, Honest: honest,
				Collector: static, Adversary: adv,
				TrimOnBatch: onBatch,
				Rng:         stats.NewRand(int64(i)),
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("ValueDomain", func(b *testing.B) { run(b, false) })
	b.Run("BatchFraction", func(b *testing.B) { run(b, true) })
}

// BenchmarkTriggerVariants: the §V future-work study — rigid Titfortat vs
// Tit-for-two-tats vs Generous Tit-for-tat vs Elastic.
func BenchmarkTriggerVariants(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Variants(sc)
		if err != nil {
			b.Fatal(err)
		}
		res.Print(io.Discard)
	}
}

// BenchmarkElasticVsTitfortatGame: trigger-rigidity ablation — full games
// under a defecting adversary.
func BenchmarkElasticVsTitfortatGame(b *testing.B) {
	ctl := dataset.Control(stats.NewRand(1))
	distances, err := ctl.Distances()
	if err != nil {
		b.Fatal(err)
	}
	honest, err := collect.PoolSampler(distances)
	if err != nil {
		b.Fatal(err)
	}
	run := func(col trim.Strategy, seed int64) {
		adv, err := attack.NewMixedP(0.5)
		if err != nil {
			b.Fatal(err)
		}
		_, err = collect.Run(collect.Config{
			Rounds: 20, Batch: 500, AttackRatio: 0.2,
			Reference: distances, Honest: honest,
			Collector: col, Adversary: adv,
			Quality: collect.EvasionQuality(0.2),
			Rng:     stats.NewRand(seed),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Run("Titfortat", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tft, err := trim.NewTitfortat(0.91, 0.87, 0.55)
			if err != nil {
				b.Fatal(err)
			}
			run(tft, int64(i))
		}
	})
	b.Run("Elastic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ela, err := trim.NewElastic(0.9, 0.5)
			if err != nil {
				b.Fatal(err)
			}
			run(ela, int64(i))
		}
	})
}
