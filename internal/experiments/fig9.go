package experiments

import (
	"fmt"
	"io"
	"math"

	"repro/internal/collect"
	"repro/internal/dataset"
	"repro/internal/ldp"
	"repro/internal/stats"
)

// Fig9Point is one (ε, scheme) mean-squared error.
type Fig9Point struct {
	Scheme  SchemeName
	Epsilon float64
	MSE     float64
}

// Fig9Panel is one attack-ratio panel.
type Fig9Panel struct {
	AttackRatio float64
	Points      []Fig9Point
	EMF         []Fig9Point // the baseline filter's series
}

// Fig9Result reproduces the LDP comparison of §VI-E on the Taxi dataset:
// MSE of the mean estimate versus the privacy budget ε, for Titfortat,
// Elastic 0.1, Elastic 0.5 and the EMF baseline, under the
// input-manipulation attack.
type Fig9Result struct {
	Panels []Fig9Panel
}

// Fig9Epsilons is the paper's ε grid.
var Fig9Epsilons = []float64{1, 1.5, 2, 2.5, 3, 3.5, 4, 4.5, 5}

// Fig9Schemes are the proposed schemes of the Fig 9 comparison.
var Fig9Schemes = []SchemeName{Titfortat, Elastic01, Elastic05}

// Fig9 runs the sweep. attackRatios and epsilons may be nil to use the
// paper's grids (9 ratios × 9 ε values — a heavy run; tests pass reduced
// grids).
func Fig9(sc Scale, attackRatios, epsilons []float64) (*Fig9Result, error) {
	if attackRatios == nil {
		attackRatios = []float64{0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45}
	}
	if epsilons == nil {
		epsilons = Fig9Epsilons
	}
	const tth = 0.95

	taxiN := sc.DatasetN * 20
	if taxiN < 10000 {
		taxiN = 10000
	}
	if taxiN > dataset.TaxiSize {
		taxiN = dataset.TaxiSize
	}
	taxi := dataset.TaxiN(stats.NewRand(sc.Seed), taxiN)
	inputs, err := taxi.Column(0)
	if err != nil {
		return nil, err
	}

	res := &Fig9Result{}
	for _, ratio := range attackRatios {
		panel := Fig9Panel{AttackRatio: ratio}
		for _, eps := range epsilons {
			mech, err := ldp.NewPiecewise(eps)
			if err != nil {
				return nil, err
			}
			// Proposed schemes: trim the reports.
			for _, name := range Fig9Schemes {
				var se float64
				for rep := 0; rep < sc.Repetitions; rep++ {
					scheme, err := NewScheme(name, tth, 0.5)
					if err != nil {
						return nil, err
					}
					out, err := collect.RunLDP(collect.LDPConfig{
						Rounds:      sc.Rounds,
						Batch:       sc.Batch,
						AttackRatio: ratio,
						Inputs:      inputs,
						Mechanism:   mech,
						Collector:   scheme.Collector,
						Adversary:   scheme.Adversary,
						Rng:         stats.NewRand(sc.Seed + int64(rep)*17 + int64(eps*10)), // common random numbers
					})
					if err != nil {
						return nil, err
					}
					d := out.MeanEstimate - out.TrueMean
					se += d * d
				}
				panel.Points = append(panel.Points, Fig9Point{
					Scheme: name, Epsilon: eps, MSE: se / float64(sc.Repetitions),
				})
			}
			// EMF baseline: no trimming; the filter consumes all reports.
			var se float64
			for rep := 0; rep < sc.Repetitions; rep++ {
				adv, err := NewScheme(Ostrich, tth, 0.5)
				if err != nil {
					return nil, err
				}
				out, err := collect.RunLDP(collect.LDPConfig{
					Rounds:      sc.Rounds,
					Batch:       sc.Batch,
					AttackRatio: ratio,
					Inputs:      inputs,
					Mechanism:   mech,
					Collector:   adv.Collector, // Ostrich: keep everything
					Adversary:   adv.Adversary,
					Rng:         stats.NewRand(sc.Seed + int64(rep)*23 + 99 + int64(eps*10)),
				})
				if err != nil {
					return nil, err
				}
				filter, err := ldp.NewEMFilter(mech, 32, 64)
				if err != nil {
					return nil, err
				}
				est, err := filter.MeanEstimate(out.AllReports)
				if err != nil {
					return nil, err
				}
				d := est - out.TrueMean
				se += d * d
			}
			panel.EMF = append(panel.EMF, Fig9Point{
				Scheme: "EMF", Epsilon: eps, MSE: se / float64(sc.Repetitions),
			})
		}
		res.Panels = append(res.Panels, panel)
	}
	return res, nil
}

// Print emits Fig 9 as one table per attack ratio.
func (r *Fig9Result) Print(w io.Writer) {
	fmt.Fprintln(w, "Fig 9: MSE vs ε on Taxi under LDP (input-manipulation attack)")
	for _, panel := range r.Panels {
		fmt.Fprintf(w, "\nAttack ratio = %.2f\n", panel.AttackRatio)
		fmt.Fprintf(w, "%-8s", "eps")
		for _, s := range Fig9Schemes {
			fmt.Fprintf(w, " %-12s", s)
		}
		fmt.Fprintf(w, " %-12s\n", "EMF")
		// Group points by epsilon.
		byEps := map[float64][]Fig9Point{}
		for _, p := range panel.Points {
			byEps[p.Epsilon] = append(byEps[p.Epsilon], p)
		}
		for _, emf := range panel.EMF {
			fmt.Fprintf(w, "%-8.2f", emf.Epsilon)
			for _, s := range Fig9Schemes {
				v := math.NaN()
				for _, p := range byEps[emf.Epsilon] {
					if p.Scheme == s {
						v = p.MSE
					}
				}
				fmt.Fprintf(w, " %-12.6f", v)
			}
			fmt.Fprintf(w, " %-12.6f\n", emf.MSE)
		}
	}
}

// SchemeMSE extracts one scheme's MSE series in one panel.
//
//trimlint:allow deadexport reproduction evidence: the figure tests read the paper's series through it
func (r *Fig9Result) SchemeMSE(ratio float64, scheme SchemeName) []Fig9Point {
	for _, panel := range r.Panels {
		if panel.AttackRatio != ratio {
			continue
		}
		if scheme == "EMF" {
			return panel.EMF
		}
		var out []Fig9Point
		for _, p := range panel.Points {
			if p.Scheme == scheme {
				out = append(out, p)
			}
		}
		return out
	}
	return nil
}
