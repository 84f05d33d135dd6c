package lagrangian

import (
	"fmt"
	"math"
)

// FreeSystem is the Stackelberg-equilibrium Lagrangian of Theorem 2:
// L = m_a·u̇_a²/2 + m_c·u̇_c²/2 with no interaction term. Its Euler-Lagrange
// dynamics are ü = 0, i.e. utilities grow linearly (Theorem 1's
// u̇ = constant).
type FreeSystem struct {
	MA, MC float64
}

// NewFreeSystem validates the inertial factors.
//
//trimlint:allow deadexport reproduction evidence: the least-action model's tests pin the paper's derivation with it
func NewFreeSystem(ma, mc float64) (*FreeSystem, error) {
	if !(ma > 0) || !(mc > 0) {
		return nil, fmt.Errorf("lagrangian: masses must be positive, got %v, %v", ma, mc)
	}
	return &FreeSystem{MA: ma, MC: mc}, nil
}

// Lagrangian returns L(q, q̇) with q = (u_a, u_c).
//
//trimlint:allow deadexport reproduction evidence: the least-action model's tests pin the paper's derivation with it
func (s *FreeSystem) Lagrangian() Lagrangian {
	return func(q, qdot []float64, r float64) float64 {
		return s.MA*qdot[0]*qdot[0]/2 + s.MC*qdot[1]*qdot[1]/2
	}
}

// Acceleration returns the E-L dynamics ü = 0.
//
//trimlint:allow deadexport reproduction evidence: the least-action model's tests pin the paper's derivation with it
func (s *FreeSystem) Acceleration() Acceleration {
	return func(q, qdot []float64, r float64) []float64 {
		return []float64{0, 0}
	}
}

// ElasticSystem is the non-equilibrium system of §IV-D/§V-B: the free
// Lagrangian plus the interaction U(u_a, u_c) = k(u_a − u_c)²/2 of
// Definition 2. Theorem 4: the utilities oscillate harmonically, as two
// masses coupled by a spring of constant k.
type ElasticSystem struct {
	MA, MC, K float64
}

// NewElasticSystem validates the parameters.
func NewElasticSystem(ma, mc, k float64) (*ElasticSystem, error) {
	if !(ma > 0) || !(mc > 0) {
		return nil, fmt.Errorf("lagrangian: masses must be positive, got %v, %v", ma, mc)
	}
	if !(k > 0) {
		return nil, fmt.Errorf("lagrangian: spring constant must be positive, got %v", k)
	}
	return &ElasticSystem{MA: ma, MC: mc, K: k}, nil
}

// Lagrangian returns L = T − U in the mechanics sign convention, so the
// E-L equations restore the relative utility toward 0 (equation 14).
//
//trimlint:allow deadexport reproduction evidence: the least-action model's tests pin the paper's derivation with it
func (s *ElasticSystem) Lagrangian() Lagrangian {
	return func(q, qdot []float64, r float64) float64 {
		rel := q[0] - q[1]
		return s.MA*qdot[0]*qdot[0]/2 + s.MC*qdot[1]*qdot[1]/2 - s.K*rel*rel/2
	}
}

// Acceleration returns the coupled-oscillator dynamics of equation 14:
// m_a·ü_a = −k(u_a − u_c), m_c·ü_c = +k(u_a − u_c).
func (s *ElasticSystem) Acceleration() Acceleration {
	return func(q, qdot []float64, r float64) []float64 {
		rel := q[0] - q[1]
		return []float64{-s.K * rel / s.MA, s.K * rel / s.MC}
	}
}

// Omega returns the angular frequency of the relative-coordinate
// oscillation, ω = √(k(1/m_a + 1/m_c)) — the ω of the paper's equation 15.
func (s *ElasticSystem) Omega() float64 {
	return math.Sqrt(s.K * (1/s.MA + 1/s.MC))
}

// Period returns 2π/ω.
func (s *ElasticSystem) Period() float64 {
	return 2 * math.Pi / s.Omega()
}

// Energy returns the conserved total energy T + U at a state, used by the
// integrator tests.
//
//trimlint:allow deadexport reproduction evidence: the least-action model's tests pin the paper's derivation with it
func (s *ElasticSystem) Energy(st State) float64 {
	rel := st.Q[0] - st.Q[1]
	return s.MA*st.Qdot[0]*st.Qdot[0]/2 + s.MC*st.Qdot[1]*st.Qdot[1]/2 + s.K*rel*rel/2
}

// RelativeUtility extracts u_a − u_c from a trajectory.
func RelativeUtility(states []State) []float64 {
	out := make([]float64, len(states))
	for i, st := range states {
		out[i] = st.Q[0] - st.Q[1]
	}
	return out
}

// EstimatePeriod measures the dominant period of a uniformly-sampled signal
// by zero-crossing analysis of its mean-removed form. Returns an error when
// fewer than two full crossings exist.
func EstimatePeriod(signal []float64, dt float64) (float64, error) {
	if len(signal) < 3 {
		return 0, fmt.Errorf("lagrangian: signal too short (%d)", len(signal))
	}
	var mean float64
	for _, v := range signal {
		mean += v
	}
	mean /= float64(len(signal))
	var crossings []float64
	for i := 1; i < len(signal); i++ {
		a, b := signal[i-1]-mean, signal[i]-mean
		if a < 0 && b >= 0 { // upward crossing
			// Linear interpolation for sub-sample accuracy.
			frac := -a / (b - a)
			crossings = append(crossings, (float64(i-1)+frac)*dt)
		}
	}
	if len(crossings) < 2 {
		return 0, fmt.Errorf("lagrangian: %d upward crossings, need ≥2", len(crossings))
	}
	return (crossings[len(crossings)-1] - crossings[0]) / float64(len(crossings)-1), nil
}
