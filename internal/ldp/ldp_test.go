package ldp

import (
	"math"
	"testing"

	"repro/internal/stats"
)

func TestCheckEpsilon(t *testing.T) {
	for _, eps := range []float64{0, -1, math.NaN(), math.Inf(1), 1e-300, maxEpsilon * 2} {
		if _, err := NewDuchi(eps); err == nil {
			t.Errorf("NewDuchi(%v) should error", eps)
		}
		if _, err := NewPiecewise(eps); err == nil {
			t.Errorf("NewPiecewise(%v) should error", eps)
		}
		if _, err := NewGRR(eps, 4); err == nil {
			t.Errorf("NewGRR(%v) should error", eps)
		}
	}
}

func TestDuchiUnbiased(t *testing.T) {
	d, err := NewDuchi(1.0)
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRand(1)
	for _, x := range []float64{-1, -0.3, 0, 0.5, 1} {
		n := 200000
		var sum float64
		for i := 0; i < n; i++ {
			sum += d.Perturb(rng, x)
		}
		if est := sum / float64(n); math.Abs(est-x) > 0.02 {
			t.Errorf("Duchi mean of x=%v reports = %v", x, est)
		}
	}
}

func TestDuchiOutputsAreExtreme(t *testing.T) {
	d, _ := NewDuchi(2.0)
	lo, hi := d.OutputBounds()
	rng := stats.NewRand(2)
	for i := 0; i < 100; i++ {
		r := d.Perturb(rng, 0.2)
		if r != lo && r != hi {
			t.Fatalf("Duchi report %v not in {%v, %v}", r, lo, hi)
		}
	}
	if d.Epsilon() != 2.0 {
		t.Errorf("Epsilon = %v", d.Epsilon())
	}
}

func TestDuchiClampsOutOfDomain(t *testing.T) {
	d, _ := NewDuchi(1.0)
	rng := stats.NewRand(3)
	// x = 5 must behave like x = 1: probability of +c is exactly e/(e+1).
	n, plus := 100000, 0
	for i := 0; i < n; i++ {
		if d.Perturb(rng, 5) > 0 {
			plus++
		}
	}
	e := math.Exp(1.0)
	want := e / (e + 1)
	if got := float64(plus) / float64(n); math.Abs(got-want) > 0.01 {
		t.Errorf("clamped P(+c) = %v, want %v", got, want)
	}
}

func TestPiecewiseUnbiased(t *testing.T) {
	p, err := NewPiecewise(2.0)
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRand(4)
	for _, x := range []float64{-0.8, 0, 0.4, 1} {
		n := 200000
		var sum float64
		for i := 0; i < n; i++ {
			sum += p.Perturb(rng, x)
		}
		if est := sum / float64(n); math.Abs(est-x) > 0.03 {
			t.Errorf("PM mean of x=%v reports = %v", x, est)
		}
	}
}

func TestPiecewiseSupport(t *testing.T) {
	p, _ := NewPiecewise(1.5)
	lo, hi := p.OutputBounds()
	if lo != -p.C() || hi != p.C() {
		t.Errorf("OutputBounds = [%v, %v], want ±%v", lo, hi, p.C())
	}
	rng := stats.NewRand(5)
	for i := 0; i < 10000; i++ {
		r := p.Perturb(rng, 0.3)
		if r < lo || r > hi {
			t.Fatalf("PM report %v outside [%v, %v]", r, lo, hi)
		}
	}
}

func TestPiecewiseDensityIntegratesToOne(t *testing.T) {
	p, _ := NewPiecewise(2.0)
	c := p.C()
	for _, x := range []float64{-1, -0.2, 0.7, 1} {
		const n = 20000
		var mass float64
		w := 2 * c / n
		for i := 0; i < n; i++ {
			tpt := -c + (float64(i)+0.5)*w
			mass += p.Density(x, tpt) * w
		}
		if math.Abs(mass-1) > 1e-3 {
			t.Errorf("∫Density(x=%v) = %v, want 1", x, mass)
		}
	}
	if p.Density(0, p.C()+1) != 0 {
		t.Error("density outside support should be 0")
	}
}

func TestPiecewiseDensityLDPRatio(t *testing.T) {
	// For any output t, densities under two inputs must differ by ≤ e^ε.
	eps := 1.2
	p, _ := NewPiecewise(eps)
	c := p.C()
	rng := stats.NewRand(6)
	for i := 0; i < 1000; i++ {
		x1 := -1 + 2*rng.Float64()
		x2 := -1 + 2*rng.Float64()
		tpt := -c + 2*c*rng.Float64()
		d1, d2 := p.Density(x1, tpt), p.Density(x2, tpt)
		if d1 <= 0 || d2 <= 0 {
			t.Fatalf("zero density inside support: %v %v", d1, d2)
		}
		if r := d1 / d2; r > math.Exp(eps)+1e-9 || r < math.Exp(-eps)-1e-9 {
			t.Fatalf("density ratio %v violates ε=%v", r, eps)
		}
	}
}

func TestPiecewiseReportsConcentrate(t *testing.T) {
	// With a large ε, reports should cluster near the true value.
	p, _ := NewPiecewise(5.0)
	rng := stats.NewRand(7)
	n, near := 20000, 0
	for i := 0; i < n; i++ {
		if math.Abs(p.Perturb(rng, 0.5)-0.5) < 0.6 {
			near++
		}
	}
	if frac := float64(near) / float64(n); frac < 0.8 {
		t.Errorf("only %v of high-ε reports near truth", frac)
	}
}

func TestGRRValidation(t *testing.T) {
	if _, err := NewGRR(1, 1); err == nil {
		t.Error("k=1 should error")
	}
	g, err := NewGRR(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Perturb(stats.NewRand(1), 4); err == nil {
		t.Error("out-of-range category should error")
	}
	if _, err := g.EstimateFrequencies([]int{1, 2}); err == nil {
		t.Error("wrong count length should error")
	}
	if _, err := g.EstimateFrequencies([]int{0, 0, 0, 0}); err == nil {
		t.Error("zero total should error")
	}
	if _, err := g.EstimateFrequencies([]int{-1, 1, 1, 1}); err == nil {
		t.Error("negative count should error")
	}
	if g.k != 4 || g.eps != 1 {
		t.Errorf("K=%d eps=%v", g.k, g.eps)
	}
}

func TestGRRFrequencyRecovery(t *testing.T) {
	g, _ := NewGRR(2.0, 5)
	rng := stats.NewRand(8)
	true5 := []float64{0.5, 0.2, 0.15, 0.1, 0.05}
	n := 200000
	counts := make([]int, 5)
	for i := 0; i < n; i++ {
		u := rng.Float64()
		v, cum := 0, 0.0
		for j, p := range true5 {
			cum += p
			if u <= cum {
				v = j
				break
			}
		}
		r, err := g.Perturb(rng, v)
		if err != nil {
			t.Fatal(err)
		}
		counts[r]++
	}
	est, err := g.EstimateFrequencies(counts)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range true5 {
		if math.Abs(est[i]-want) > 0.02 {
			t.Errorf("freq[%d] = %v, want %v", i, est[i], want)
		}
	}
}

func TestEMFilterValidation(t *testing.T) {
	p, _ := NewPiecewise(2.0)
	if _, err := NewEMFilter(nil, 8, 16); err == nil {
		t.Error("nil mechanism should error")
	}
	if _, err := NewEMFilter(p, 1, 16); err == nil {
		t.Error("too few bins should error")
	}
	f, err := NewEMFilter(p, 8, 16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Fit(nil); err == nil {
		t.Error("empty reports should error")
	}
}

func TestEMFilterChannelIsStochastic(t *testing.T) {
	p, _ := NewPiecewise(2.0)
	f, _ := NewEMFilter(p, 16, 32)
	for j := 0; j < 16; j++ {
		var col float64
		for b := 0; b < 32; b++ {
			if f.channel[b][j] < 0 {
				t.Fatalf("negative channel entry at [%d][%d]", b, j)
			}
			col += f.channel[b][j]
		}
		if math.Abs(col-1) > 1e-9 {
			t.Errorf("channel column %d sums to %v", j, col)
		}
	}
}

func TestEMFilterHonestOnly(t *testing.T) {
	// With only honest reports, the filter should recover the mean well and
	// attribute little mass to attackers.
	p, _ := NewPiecewise(3.0)
	f, _ := NewEMFilter(p, 32, 64)
	rng := stats.NewRand(9)
	trueMean := 0.3
	var reports []float64
	for i := 0; i < 50000; i++ {
		x := stats.Clamp(stats.Normal(rng, trueMean, 0.2), -1, 1)
		reports = append(reports, p.Perturb(rng, x))
	}
	res, err := f.Fit(reports)
	if err != nil {
		t.Fatal(err)
	}
	if res.AttackMass > 0.15 {
		t.Errorf("honest-only attack mass = %v, want small", res.AttackMass)
	}
	m, err := f.MeanEstimate(reports)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m-trueMean) > 0.08 {
		t.Errorf("EMF mean = %v, want ≈%v", m, trueMean)
	}
}

func TestEMFilterCatchesGeneralManipulation(t *testing.T) {
	// General manipulators ignore the mechanism and park all reports at
	// the output extreme — a channel-inconsistent spike the EM should
	// attribute to attackers.
	p, _ := NewPiecewise(2.0)
	f, _ := NewEMFilter(p, 32, 64)
	rng := stats.NewRand(10)
	var reports []float64
	for i := 0; i < 30000; i++ {
		x := stats.Clamp(stats.Normal(rng, 0, 0.2), -1, 1)
		reports = append(reports, p.Perturb(rng, x))
	}
	for i := 0; i < 6000; i++ { // 20% attackers
		reports = append(reports, p.C())
	}
	res, err := f.Fit(reports)
	if err != nil {
		t.Fatal(err)
	}
	if res.AttackMass < 0.08 {
		t.Errorf("EMF missed general manipulation: mass = %v", res.AttackMass)
	}
	// The attack distribution should concentrate in the top output bin.
	top := res.AttackFreq[len(res.AttackFreq)-1]
	if top < 0.3 {
		t.Errorf("attack dist top-bin mass = %v, want concentrated", top)
	}
}

func TestEMFilterBlindToInputManipulation(t *testing.T) {
	// Input manipulators are channel-consistent: the EMF attributes much
	// less mass to them than to general manipulators — its documented
	// weakness and the reason the paper's schemes win Fig 9.
	p, _ := NewPiecewise(2.0)
	f, _ := NewEMFilter(p, 32, 64)
	rng := stats.NewRand(11)
	im, err := NewInputManipulator(p, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if im.input != 1.0 {
		t.Errorf("Input = %v", im.input)
	}
	var reports []float64
	for i := 0; i < 30000; i++ {
		x := stats.Clamp(stats.Normal(rng, 0, 0.2), -1, 1)
		reports = append(reports, p.Perturb(rng, x))
	}
	for i := 0; i < 6000; i++ {
		reports = append(reports, im.Report(rng))
	}
	res, err := f.Fit(reports)
	if err != nil {
		t.Fatal(err)
	}
	// 20% of reports are poison but the EM should see most of them as
	// honest (they are channel-consistent for input 1.0).
	if res.AttackMass > 0.15 {
		t.Errorf("EMF 'caught' input manipulation (mass %v); expected blindness", res.AttackMass)
	}
}

func TestManipulatorValidation(t *testing.T) {
	if _, err := NewInputManipulator(nil, 1); err == nil {
		t.Error("nil mechanism should error")
	}
	p, _ := NewPiecewise(1.0)
	imr, _ := NewInputManipulator(p, 42)
	if imr.input != 1 {
		t.Errorf("input should clamp to 1, got %v", imr.input)
	}
}
