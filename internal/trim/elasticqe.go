package trim

import "fmt"

// ElasticQE is the literal form of Algorithm 2: the threshold for round i
// interpolates between the soft position T̄ and the hard position T̲
// proportionally to the normalized quality evaluation of the previous
// round,
//
//	T_th(i) = (1 − k·QE_i)·T̄ + k·QE_i·T̲,
//
// where QE_i ∈ [0, 1] measures the *poison intensity* of round i (0 = no
// poison observed, 1 = maximal). The §VI-A percentile-update Elastic is the
// response-to-position form used in the experiments; this form is the
// response-to-intensity variant, kept for the ablation benches.
type ElasticQE struct {
	SoftPct float64 // T̄
	HardPct float64 // T̲
	K       float64

	last float64
}

// NewElasticQE validates and builds the strategy.
//
//trimlint:allow deadexport reproduction evidence: the paper's Algorithm 2, which the trim tests pin Elastic against
func NewElasticQE(softPct, hardPct, k float64) (*ElasticQE, error) {
	if err := validatePct("soft", softPct); err != nil {
		return nil, err
	}
	if err := validatePct("hard", hardPct); err != nil {
		return nil, err
	}
	if hardPct >= softPct {
		return nil, fmt.Errorf("trim: hard threshold %v must be below soft %v", hardPct, softPct)
	}
	if !(k > 0 && k <= 1) {
		return nil, fmt.Errorf("trim: elasticQE k = %v outside (0,1]", k)
	}
	return &ElasticQE{SoftPct: softPct, HardPct: hardPct, K: k, last: softPct}, nil
}

// Name implements Strategy.
func (e *ElasticQE) Name() string { return fmt.Sprintf("ElasticQE%.1f", e.K) }

// Threshold implements Strategy. The previous observation's Quality is
// interpreted as goodness in [0,1]; poison intensity is its complement.
func (e *ElasticQE) Threshold(r int, prev Observation) float64 {
	if r <= 1 {
		e.last = e.SoftPct
		return e.last
	}
	intensity := clampPct(1 - prev.Quality)
	w := e.K * intensity
	e.last = (1-w)*e.SoftPct + w*e.HardPct
	return e.last
}

// Reset implements Strategy.
func (e *ElasticQE) Reset() { e.last = e.SoftPct }
