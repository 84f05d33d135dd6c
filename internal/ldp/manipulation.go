package ldp

import (
	"fmt"
	"math/rand"
)

// Manipulation attacks against LDP protocols, after Cheu, Smith & Ullman
// (S&P 2021). Byzantine users control the *message*, not just the input:
//
//   - General manipulation: report any value in the output domain,
//     ignoring the mechanism entirely. Strongest skew, but reports may be
//     distributionally inconsistent with the mechanism — detectable by
//     filters such as the EMF.
//   - Input manipulation: forge an input value and then follow the
//     mechanism honestly. Weaker skew but channel-consistent, giving the
//     attacker deniability; this is the "potent evasion strategy" the
//     paper's Fig 9 uses against the EMF.
//
// Only input manipulation needs a type: a general manipulator reports a
// constant.

// InputManipulator forges an in-domain input and perturbs it honestly.
type InputManipulator struct {
	mech  Mechanism
	input float64
}

// NewInputManipulator builds an attacker that pretends to hold input —
// clamped into the mechanism's honest input domain ([−1, 1] unless the
// mechanism is an InputClamper) — and follows the protocol.
func NewInputManipulator(mech Mechanism, input float64) (*InputManipulator, error) {
	if mech == nil {
		return nil, fmt.Errorf("ldp: nil mechanism")
	}
	if c, ok := mech.(InputClamper); ok {
		input = c.ClampInput(input)
	} else {
		input = clampInput(input)
	}
	return &InputManipulator{mech: mech, input: input}, nil
}

// Report perturbs the forged input through the real mechanism.
func (m *InputManipulator) Report(rng *rand.Rand) float64 {
	return m.mech.Perturb(rng, m.input)
}
