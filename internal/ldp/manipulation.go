package ldp

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
// Neither needs a type: a general manipulator reports a constant, and an
// input manipulator reports mech.Perturb(rng, ForgeInput(mech, x)).

// ForgeInput is the input an input-manipulation attacker that pretends to
// hold x perturbs through mech: x clamped into the mechanism's honest
// input domain — [−1, 1] unless mech is an InputClamper. It draws nothing.
func ForgeInput(mech Mechanism, x float64) float64 {
	if c, ok := mech.(InputClamper); ok {
		return c.ClampInput(x)
	}
	return clampInput(x)
}
