// Package lagrangian implements the paper's analytical model of the
// infinite collection game (§II, §IV): the action functional, a numerical
// Euler-Lagrange integrator, and the two Lagrangians the paper derives —
// the free (equilibrium) form L = m_a·u̇_a²/2 + m_c·u̇_c²/2 of Theorem 2 and
// the elastic (non-equilibrium) form with interaction U = k(u_a − u_c)²/2
// of Definition 2, whose dynamics are the coupled harmonic oscillator of
// Theorem 4.
//
// The round index r plays the role of time; the players' cumulative
// utilities u_a(r), u_c(r) are the generalized coordinates.
package lagrangian

import (
	"fmt"
	"math"
)

// Lagrangian is a function L(q, q̇, r) over s generalized coordinates.
type Lagrangian func(q, qdot []float64, r float64) float64

// Path is a discretized trajectory: Q[i][d] is coordinate d at knot i,
// sampled uniformly over [R0, R1].
type Path struct {
	R0, R1 float64
	Q      [][]float64
}

// Knots returns the number of samples.
func (p *Path) Knots() int { return len(p.Q) }

// Action computes S = ∫ L(q, q̇, r) dr over the path with centered finite
// differences for q̇ and trapezoidal quadrature — the functional the least
// action principle (equation 1/3) minimizes.
//
//trimlint:allow deadexport reproduction evidence: the least-action model's tests pin the paper's derivation with it
func Action(L Lagrangian, p *Path) (float64, error) {
	n := p.Knots()
	if n < 3 {
		return 0, fmt.Errorf("lagrangian: path needs ≥3 knots, got %d", n)
	}
	if !(p.R1 > p.R0) {
		return 0, fmt.Errorf("lagrangian: degenerate interval [%v, %v]", p.R0, p.R1)
	}
	dim := len(p.Q[0])
	h := (p.R1 - p.R0) / float64(n-1)
	qdot := make([]float64, dim)
	var s float64
	for i := 0; i < n; i++ {
		for d := 0; d < dim; d++ {
			switch {
			case i == 0:
				qdot[d] = (p.Q[1][d] - p.Q[0][d]) / h
			case i == n-1:
				qdot[d] = (p.Q[n-1][d] - p.Q[n-2][d]) / h
			default:
				qdot[d] = (p.Q[i+1][d] - p.Q[i-1][d]) / (2 * h)
			}
		}
		r := p.R0 + float64(i)*h
		w := 1.0
		if i == 0 || i == n-1 {
			w = 0.5
		}
		s += w * L(p.Q[i], qdot, r) * h
	}
	return s, nil
}

// LinearPath builds the straight-line trajectory between q0 and q1 with n
// knots — the free-particle solution whose action the least-action tests
// compare against perturbed paths.
//
//trimlint:allow deadexport reproduction evidence: the least-action model's tests pin the paper's derivation with it
func LinearPath(r0, r1 float64, q0, q1 []float64, n int) (*Path, error) {
	if n < 3 {
		return nil, fmt.Errorf("lagrangian: need ≥3 knots, got %d", n)
	}
	if len(q0) != len(q1) {
		return nil, fmt.Errorf("lagrangian: endpoint dims %d vs %d", len(q0), len(q1))
	}
	p := &Path{R0: r0, R1: r1, Q: make([][]float64, n)}
	for i := 0; i < n; i++ {
		t := float64(i) / float64(n-1)
		q := make([]float64, len(q0))
		for d := range q {
			q[d] = q0[d]*(1-t) + q1[d]*t
		}
		p.Q[i] = q
	}
	return p, nil
}

// PerturbPath returns a copy of p with a smooth interior bump added to
// every coordinate: amp·sin(π·i/(n−1)) keeps the endpoints fixed, as the
// variational principle requires.
//
//trimlint:allow deadexport reproduction evidence: the least-action model's tests pin the paper's derivation with it
func PerturbPath(p *Path, amp float64) *Path {
	n := p.Knots()
	out := &Path{R0: p.R0, R1: p.R1, Q: make([][]float64, n)}
	for i := 0; i < n; i++ {
		q := append([]float64(nil), p.Q[i]...)
		bump := amp * math.Sin(math.Pi*float64(i)/float64(n-1))
		for d := range q {
			q[d] += bump
		}
		out.Q[i] = q
	}
	return out
}

// Acceleration is q̈ = a(q, q̇, r) for a second-order system.
type Acceleration func(q, qdot []float64, r float64) []float64

// State is a snapshot of the system at round r.
type State struct {
	R    float64
	Q    []float64
	Qdot []float64
}

// Integrate advances the system from an initial state over [r0, r1] using
// velocity Verlet with n steps. Verlet is symplectic: it conserves the
// oscillator's energy over long horizons, which the tests rely on.
func Integrate(acc Acceleration, q0, qdot0 []float64, r0, r1 float64, n int) ([]State, error) {
	if n < 1 {
		return nil, fmt.Errorf("lagrangian: need ≥1 step, got %d", n)
	}
	if len(q0) != len(qdot0) {
		return nil, fmt.Errorf("lagrangian: q dim %d but q̇ dim %d", len(q0), len(qdot0))
	}
	if !(r1 > r0) {
		return nil, fmt.Errorf("lagrangian: degenerate interval [%v, %v]", r0, r1)
	}
	h := (r1 - r0) / float64(n)
	dim := len(q0)
	q := append([]float64(nil), q0...)
	v := append([]float64(nil), qdot0...)
	states := make([]State, 0, n+1)
	record := func(r float64) {
		states = append(states, State{
			R:    r,
			Q:    append([]float64(nil), q...),
			Qdot: append([]float64(nil), v...),
		})
	}
	record(r0)
	a := acc(q, v, r0)
	for i := 0; i < n; i++ {
		r := r0 + float64(i)*h
		for d := 0; d < dim; d++ {
			q[d] += v[d]*h + 0.5*a[d]*h*h
		}
		aNew := acc(q, v, r+h)
		for d := 0; d < dim; d++ {
			v[d] += 0.5 * (a[d] + aNew[d]) * h
		}
		a = aNew
		record(r + h)
	}
	return states, nil
}
