package attack

import (
	"fmt"
	"math"
	"math/rand"
)

// Probing is the black-box adversary of the paper's future-work section
// (§VIII): it cannot read the collector's threshold off the public board
// (incomplete information), so it estimates the threshold by probing —
// bisecting on whether its own poison survived the previous round.
//
// The adversary maintains an interval [lo, hi] believed to contain the
// collector's threshold percentile. Each round it injects at the interval
// midpoint; if the poison survived, the threshold must be above the probe
// (raise lo), otherwise below it (lower hi). Against a static collector the
// probe converges geometrically to just below the threshold — the
// black-box analogue of the Baselinestatic ideal attack. Against an
// adaptive collector the interval chases a moving target, which is exactly
// the regime the interactive strategies exploit.
type Probing struct {
	InitLo, InitHi float64
	Margin         float64 // stand-off below the estimated threshold

	lo, hi float64
	last   float64
}

// NewProbing builds the black-box adversary searching [lo, hi] and
// ultimately injecting margin below its threshold estimate.
func NewProbing(lo, hi, margin float64) (*Probing, error) {
	if err := validatePct("lo", lo); err != nil {
		return nil, err
	}
	if err := validatePct("hi", hi); err != nil {
		return nil, err
	}
	if lo >= hi {
		return nil, fmt.Errorf("attack: probing interval [%v, %v] empty", lo, hi)
	}
	if margin < 0 || margin > hi-lo {
		return nil, fmt.Errorf("attack: probing margin %v outside [0, %v]", margin, hi-lo)
	}
	p := &Probing{InitLo: lo, InitHi: hi, Margin: margin}
	p.Reset()
	return p, nil
}

// Name implements Strategy.
func (p *Probing) Name() string { return "Probing" }

// Observe feeds back whether the previous round's poison survived. The
// collection engines do not call this automatically (survival of one's own
// reports is attacker-side knowledge, not board data); black-box
// experiments call it between rounds.
func (p *Probing) Observe(survived bool) {
	// Probes at a bracket edge carry a verdict the bracket already implies;
	// when the data disagrees, the collector has moved and the bracket
	// reopens toward the contradicted side.
	tol := (p.InitHi - p.InitLo) / 256
	switch {
	case survived && p.last >= p.hi-tol:
		// The bracket said the threshold was below the probe, yet the
		// poison survived — the collector moved up.
		p.lo, p.hi = p.last, p.InitHi
	case survived:
		if p.last > p.lo {
			p.lo = p.last
		}
	case p.last <= p.lo+tol:
		// The bracket said probes at the lower edge survive, yet this one
		// was trimmed — the collector moved down.
		p.lo, p.hi = p.InitLo, p.last
	default:
		if p.last < p.hi {
			p.hi = p.last
		}
	}
	// Once converged, keep a small working window open so a collector move
	// is detected within a round or two instead of silently probing one
	// stale point forever.
	if p.hi-p.lo < 1e-4 {
		w := (p.InitHi - p.InitLo) / 32
		p.lo = math.Max(p.InitLo, p.lo-w)
		p.hi = math.Min(p.InitHi, p.hi+w)
	}
}

// InjectionSpec implements SpecInjector: probe at the bracket midpoint,
// backed off by the safety margin.
func (p *Probing) InjectionSpec(int, Observation) InjectionSpec {
	mid := (p.lo + p.hi) / 2
	p.last = mid
	pct := mid - p.Margin
	if pct < 0 {
		pct = 0
	}
	return PointSpec(pct)
}

// Injection implements Strategy.
func (p *Probing) Injection(r int, prev Observation) func(*rand.Rand) float64 {
	return p.InjectionSpec(r, prev).Sampler()
}

// Reset implements Strategy.
func (p *Probing) Reset() {
	p.lo, p.hi = p.InitLo, p.InitHi
	p.last = (p.lo + p.hi) / 2
}
