package stats

import (
	"fmt"
	"math"
	"sort"
)

// P2Quantile is a streaming quantile estimator implementing the P² algorithm
// of Jain & Chlamtac (CACM 1985). It maintains five markers and estimates a
// single quantile in O(1) space, which lets the data collector track the
// trimming percentile over an unbounded stream without buffering rounds.
//
// It is an ablation alternative to exact sorting (see DESIGN.md §5): exact
// percentiles cost O(n log n) per round while P² is O(1) amortized per
// observation at the price of a small bias that the tests bound. Unlike the
// mergeable summaries of internal/stats/summary (the system default), a P²
// instance tracks a single fixed quantile and cannot be merged across
// shards.
type P2Quantile struct {
	q     float64    // target quantile in (0,1)
	n     int        // observations seen
	pos   [5]float64 // actual marker positions (1-based, as in the paper)
	want  [5]float64 // desired marker positions
	incr  [5]float64 // desired position increments per observation
	h     [5]float64 // marker heights (estimates)
	ready bool       // true once 5 observations have been absorbed
	init  []float64  // buffer for the first 5 observations
}

// NewP2Quantile returns a streaming estimator for the q-th quantile,
// 0 < q < 1.
//
//trimlint:allow deadexport staged: only tests call it (the TestP2 tests, BenchmarkPercentileP2)
func NewP2Quantile(q float64) (*P2Quantile, error) {
	if !(q > 0 && q < 1) {
		return nil, fmt.Errorf("stats: P2 quantile %v outside (0,1)", q)
	}
	return &P2Quantile{q: q, init: make([]float64, 0, 5)}, nil
}

// Add absorbs one observation.
//
//trimlint:allow deadexport staged: only tests call it (the TestP2 tests, BenchmarkPercentileP2)
func (p *P2Quantile) Add(x float64) {
	p.n++
	if !p.ready {
		p.init = append(p.init, x)
		if len(p.init) == 5 {
			sort.Float64s(p.init)
			for i := 0; i < 5; i++ {
				p.h[i] = p.init[i]
				p.pos[i] = float64(i + 1)
			}
			q := p.q
			p.want = [5]float64{1, 1 + 2*q, 1 + 4*q, 3 + 2*q, 5}
			p.incr = [5]float64{0, q / 2, q, (1 + q) / 2, 1}
			p.ready = true
		}
		return
	}

	// Find the cell k containing x and update extreme heights.
	var k int
	switch {
	case x < p.h[0]:
		p.h[0] = x
		k = 0
	case x < p.h[1]:
		k = 0
	case x < p.h[2]:
		k = 1
	case x < p.h[3]:
		k = 2
	case x <= p.h[4]:
		k = 3
	default:
		p.h[4] = x
		k = 3
	}

	for i := k + 1; i < 5; i++ {
		p.pos[i]++
	}
	for i := 0; i < 5; i++ {
		p.want[i] += p.incr[i]
	}

	// Adjust interior markers toward their desired positions.
	for i := 1; i <= 3; i++ {
		d := p.want[i] - p.pos[i]
		if (d >= 1 && p.pos[i+1]-p.pos[i] > 1) || (d <= -1 && p.pos[i-1]-p.pos[i] < -1) {
			sign := 1.0
			if d < 0 {
				sign = -1.0
			}
			hNew := p.parabolic(i, sign)
			if p.h[i-1] < hNew && hNew < p.h[i+1] {
				p.h[i] = hNew
			} else {
				p.h[i] = p.linear(i, sign)
			}
			p.pos[i] += sign
		}
	}
}

// parabolic is the P² piecewise-parabolic prediction for marker i moved by d.
func (p *P2Quantile) parabolic(i int, d float64) float64 {
	return p.h[i] + d/(p.pos[i+1]-p.pos[i-1])*
		((p.pos[i]-p.pos[i-1]+d)*(p.h[i+1]-p.h[i])/(p.pos[i+1]-p.pos[i])+
			(p.pos[i+1]-p.pos[i]-d)*(p.h[i]-p.h[i-1])/(p.pos[i]-p.pos[i-1]))
}

// linear is the fallback linear prediction for marker i moved by d.
func (p *P2Quantile) linear(i int, d float64) float64 {
	j := i + int(d)
	return p.h[i] + d*(p.h[j]-p.h[i])/(p.pos[j]-p.pos[i])
}

// Value returns the current quantile estimate. Before five observations it
// falls back to an exact computation on the buffered values; with no
// observations it returns NaN.
//
//trimlint:allow deadexport staged: only tests call it (the TestP2 tests, BenchmarkPercentileP2)
func (p *P2Quantile) Value() float64 {
	if p.ready {
		return p.h[2]
	}
	if len(p.init) == 0 {
		return math.NaN()
	}
	tmp := append([]float64(nil), p.init...)
	sort.Float64s(tmp)
	return QuantileSorted(tmp, p.q)
}

// Count returns the number of observations absorbed.
//
//trimlint:allow deadexport staged: only tests call it (the TestP2 tests, BenchmarkPercentileP2)
func (p *P2Quantile) Count() int { return p.n }
