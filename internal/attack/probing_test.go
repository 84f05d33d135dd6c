package attack

import (
	"math"
	"testing"

	"repro/internal/stats"
)

func TestProbingValidation(t *testing.T) {
	cases := []struct{ lo, hi, margin float64 }{
		{0.9, 0.8, 0.01},  // inverted
		{0.8, 0.8, 0.01},  // empty
		{-0.1, 0.9, 0.01}, // bad lo
		{0.8, 1.2, 0.01},  // bad hi
		{0.8, 0.9, -0.1},  // bad margin
		{0.8, 0.9, 0.5},   // margin wider than interval
	}
	for i, c := range cases {
		if _, err := NewProbing(c.lo, c.hi, c.margin); err == nil {
			t.Errorf("case %d (%+v) should fail", i, c)
		}
	}
}

// TestProbingConvergesOnStaticThreshold: against a fixed threshold the
// bisection must land just below it.
func TestProbingConvergesOnStaticThreshold(t *testing.T) {
	const threshold = 0.87
	p, err := NewProbing(0.8, 1.0, 0.005)
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRand(1)
	var inj float64
	for r := 1; r <= 30; r++ {
		inj = p.Injection(r, Observation{})(rng)
		// Poison survives iff it lands strictly below the threshold (value
		// semantics with the margin applied).
		p.Observe(inj+p.Margin < threshold)
	}
	lo, hi := p.lo, p.hi
	if math.Abs((lo+hi)/2-threshold) > 0.01 {
		t.Errorf("bracket [%v, %v] did not converge to %v", lo, hi, threshold)
	}
	if inj >= threshold {
		t.Errorf("final injection %v not below threshold %v", inj, threshold)
	}
	if inj < threshold-0.02 {
		t.Errorf("final injection %v too conservative (threshold %v)", inj, threshold)
	}
}

// TestProbingTracksMovingThreshold: when the collector moves, the bracket
// reopens and re-converges instead of collapsing on a stale estimate.
func TestProbingTracksMovingThreshold(t *testing.T) {
	p, err := NewProbing(0.8, 1.0, 0.005)
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRand(2)
	threshold := 0.95
	for r := 1; r <= 60; r++ {
		if r == 30 {
			threshold = 0.85 // the collector hardens mid-game
		}
		inj := p.Injection(r, Observation{})(rng)
		p.Observe(inj+p.Margin < threshold)
	}
	lo, hi := p.lo, p.hi
	if math.Abs((lo+hi)/2-0.85) > 0.03 {
		t.Errorf("bracket [%v, %v] did not re-converge to the new threshold 0.85", lo, hi)
	}
}

func TestProbingReset(t *testing.T) {
	p, _ := NewProbing(0.8, 1.0, 0.01)
	rng := stats.NewRand(3)
	p.Injection(1, Observation{})(rng)
	p.Observe(false)
	p.Reset()
	lo, hi := p.lo, p.hi
	if lo != 0.8 || hi != 1.0 {
		t.Errorf("Reset bracket = [%v, %v]", lo, hi)
	}
	if p.Name() != "Probing" {
		t.Errorf("Name = %q", p.Name())
	}
}

func TestProbingInjectionClamped(t *testing.T) {
	p, _ := NewProbing(0, 0.05, 0.05)
	rng := stats.NewRand(4)
	if got := p.Injection(1, Observation{})(rng); got < 0 {
		t.Errorf("injection %v below 0", got)
	}
}
