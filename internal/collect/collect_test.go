package collect

import (
	"math"
	"testing"

	"repro/internal/attack"
	"repro/internal/dataset"
	"repro/internal/ldp"
	"repro/internal/stats"
	"repro/internal/trim"
)

// reference returns a clean N(0,1)-style reference pool.
func reference(seed int64, n int) []float64 {
	return stats.NormalSlice(stats.NewRand(seed), n, 0, 1)
}

func baseConfig(t *testing.T, seed int64) Config {
	t.Helper()
	ref := reference(seed, 5000)
	honest, err := PoolSampler(ref)
	if err != nil {
		t.Fatal(err)
	}
	static, err := trim.NewStatic("Static0.9", 0.9)
	if err != nil {
		t.Fatal(err)
	}
	adv, err := attack.NewPoint("P99", 0.99)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Rounds:      10,
		Batch:       500,
		AttackRatio: 0.2,
		Reference:   ref,
		Honest:      honest,
		Collector:   static,
		Adversary:   adv,
		Rng:         stats.NewRand(seed + 1),
	}
}

func TestRunValidation(t *testing.T) {
	good := baseConfig(t, 1)
	cases := []func(*Config){
		func(c *Config) { c.Rounds = 0 },
		func(c *Config) { c.Batch = 0 },
		func(c *Config) { c.AttackRatio = -1 },
		func(c *Config) { c.AttackRatio = math.NaN() },
		func(c *Config) { c.Reference = nil },
		func(c *Config) { c.Honest = nil },
		func(c *Config) { c.Collector = nil },
		func(c *Config) { c.Adversary = nil },
		func(c *Config) { c.Rng = nil },
	}
	for i, mutate := range cases {
		cfg := good
		mutate(&cfg)
		if _, err := Run(cfg); err == nil {
			t.Errorf("case %d should fail validation", i)
		}
	}
}

func TestPoolSamplerEmpty(t *testing.T) {
	if _, err := PoolSampler(nil); err == nil {
		t.Error("empty pool should error")
	}
}

func TestRunBasicAccounting(t *testing.T) {
	cfg := baseConfig(t, 2)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Board.Records) != cfg.Rounds {
		t.Fatalf("%d rounds recorded, want %d", len(res.Board.Records), cfg.Rounds)
	}
	poisonCount := int(math.Round(cfg.AttackRatio * float64(cfg.Batch)))
	for _, rec := range res.Board.Records {
		if rec.HonestKept+rec.HonestTrimmed != cfg.Batch {
			t.Errorf("round %d: honest accounting %d+%d != %d",
				rec.Round, rec.HonestKept, rec.HonestTrimmed, cfg.Batch)
		}
		if rec.PoisonKept+rec.PoisonTrimmed != poisonCount {
			t.Errorf("round %d: poison accounting %d+%d != %d",
				rec.Round, rec.PoisonKept, rec.PoisonTrimmed, poisonCount)
		}
		if rec.ThresholdPct != 0.9 {
			t.Errorf("round %d threshold = %v", rec.Round, rec.ThresholdPct)
		}
		if math.Abs(rec.MeanInjectionPct-0.99) > 1e-12 {
			t.Errorf("round %d injection = %v", rec.Round, rec.MeanInjectionPct)
		}
	}
}

func TestRunTrimsPoisonAboveThreshold(t *testing.T) {
	// Poison at the 99th reference percentile against a 90th percentile
	// trim over the received batch: most poison must be removed (the
	// mixed-percentile shift retains a little, see DESIGN.md).
	cfg := baseConfig(t, 3)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	retention := res.Board.PoisonRetention()
	if retention > 0.10 {
		t.Errorf("poison retention = %v, want most poison trimmed", retention)
	}
	loss := res.Board.HonestLoss()
	if loss <= 0 || loss > 0.2 {
		t.Errorf("honest loss = %v, want small positive overhead", loss)
	}
}

func TestRunOstrichKeepsEverything(t *testing.T) {
	cfg := baseConfig(t, 4)
	cfg.Collector = trim.Ostrich{}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range res.Board.Records {
		if rec.HonestTrimmed != 0 || rec.PoisonTrimmed != 0 {
			t.Fatalf("Ostrich trimmed something: %+v", rec)
		}
	}
	// All poison retained: retention = poison/(honest+poison).
	want := 100.0 / 600.0
	if got := res.Board.PoisonRetention(); math.Abs(got-want) > 1e-9 {
		t.Errorf("retention = %v, want %v", got, want)
	}
}

func TestRunZeroAttackRatio(t *testing.T) {
	cfg := baseConfig(t, 5)
	cfg.AttackRatio = 0
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range res.Board.Records {
		if rec.PoisonKept+rec.PoisonTrimmed != 0 {
			t.Fatal("phantom poison")
		}
		if !math.IsNaN(rec.MeanInjectionPct) {
			t.Errorf("injection pct = %v, want NaN", rec.MeanInjectionPct)
		}
	}
	if got := res.Board.PoisonRetention(); got != 0 {
		t.Errorf("retention = %v, want 0", got)
	}
}

func TestRunKeptStreamAccounting(t *testing.T) {
	cfg := baseConfig(t, 6)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var kept int
	for _, rec := range res.Board.Records {
		kept += rec.HonestKept + rec.PoisonKept
	}
	if res.Kept.Count() != kept {
		t.Errorf("Kept count = %d, accounting says %d", res.Kept.Count(), kept)
	}
}

func TestRunDeterministicWithSeed(t *testing.T) {
	run := func() *Result {
		cfg := baseConfig(t, 7)
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	for i := range a.Board.Records {
		if a.Board.Records[i] != b.Board.Records[i] {
			t.Fatalf("round %d diverged between identical seeds", i+1)
		}
	}
}

func TestElasticGameConverges(t *testing.T) {
	cfg := baseConfig(t, 8)
	col, err := trim.NewElastic(0.9, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	adv, err := attack.NewElastic(0.9, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Collector = col
	cfg.Adversary = adv
	cfg.Rounds = 40
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tStar, aStar, err := trim.EquilibriumThresholds(0.9, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	last := res.Board.Records[len(res.Board.Records)-1]
	if math.Abs(last.ThresholdPct-tStar) > 1e-6 {
		t.Errorf("final threshold %v, want %v", last.ThresholdPct, tStar)
	}
	if math.Abs(last.MeanInjectionPct-aStar) > 1e-6 {
		t.Errorf("final injection %v, want %v", last.MeanInjectionPct, aStar)
	}
}

func TestTitfortatGameTriggersOnDefection(t *testing.T) {
	cfg := baseConfig(t, 9)
	tft, err := trim.NewTitfortat(0.91, 0.87, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Collector = tft
	// Greedy adversary floods the 90th percentile — quality collapses.
	adv, err := attack.NewMixedP(0)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Adversary = adv
	cfg.AttackRatio = 0.3
	cfg.Quality = EvasionQuality(cfg.AttackRatio)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !tft.Triggered() {
		t.Error("Titfortat never triggered against a fully evasive adversary")
	}
	// After the trigger round, thresholds must be hard.
	for _, rec := range res.Board.Records {
		if rec.Round > tft.TriggeredAt+1 && rec.ThresholdPct != 0.87 {
			t.Errorf("round %d threshold %v after trigger at %d",
				rec.Round, rec.ThresholdPct, tft.TriggeredAt)
		}
	}
}

func TestTitfortatGameNoTriggerAtEquilibrium(t *testing.T) {
	cfg := baseConfig(t, 10)
	tft, err := trim.NewTitfortat(0.91, 0.87, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Collector = tft
	adv, err := attack.NewMixedP(1) // equilibrium play
	if err != nil {
		t.Fatal(err)
	}
	cfg.Adversary = adv
	cfg.Quality = EvasionQuality(cfg.AttackRatio)
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	if tft.Triggered() {
		t.Error("Titfortat triggered against an equilibrium adversary with generous redundancy")
	}
}

func TestExcessMassQuality(t *testing.T) {
	ref := make([]float64, 1000)
	for i := range ref {
		ref[i] = float64(i)
	}
	refSorted := sortedCopy(ref)
	// Clean round: ~10% above Q90 ⇒ quality ≈ 1.
	if q := ExcessMassQuality(ref, refSorted); q < 0.95 {
		t.Errorf("clean quality = %v", q)
	}
	// Heavily poisoned: half the batch above Q90.
	poisoned := append(append([]float64(nil), ref[:500]...), make([]float64, 500)...)
	for i := 500; i < 1000; i++ {
		poisoned[i] = 2000
	}
	if q := ExcessMassQuality(poisoned, refSorted); q > 0.7 {
		t.Errorf("poisoned quality = %v, want low", q)
	}
	if !math.IsNaN(ExcessMassQuality(nil, refSorted)) {
		t.Error("empty round should be NaN")
	}
}

func TestEvasionQuality(t *testing.T) {
	ref := make([]float64, 10000)
	for i := range ref {
		ref[i] = float64(i)
	}
	refSorted := sortedCopy(ref)
	qf := EvasionQuality(0.2)
	// Clean round: no excess in the window.
	if q := qf(ref, refSorted); q < 0.9 {
		t.Errorf("clean evasion quality = %v", q)
	}
	// All poison at the 90th percentile: window floods.
	round := append([]float64(nil), ref...)
	for i := 0; i < 2000; i++ {
		round = append(round, 9000) // the Q90 position
	}
	if q := qf(round, refSorted); q > 0.3 {
		t.Errorf("evasive round quality = %v, want low", q)
	}
	if !math.IsNaN(qf(nil, refSorted)) {
		t.Error("empty round should be NaN")
	}
	zero := EvasionQuality(0)
	if !math.IsNaN(zero(ref, refSorted)) {
		t.Error("zero attack ratio should be NaN")
	}
}

func TestBoardEmpty(t *testing.T) {
	var b Board
	if _, ok := b.Last(); ok {
		t.Error("empty board Last should be false")
	}
	if !math.IsNaN(b.PoisonRetention()) {
		t.Error("empty board retention should be NaN")
	}
	if !math.IsNaN(b.HonestLoss()) {
		t.Error("empty board loss should be NaN")
	}
	cv := b.collectorView()
	if !math.IsNaN(cv.InjectionPct) {
		t.Error("empty board collector view should carry NaN injection")
	}
	av := b.adversaryView()
	if !math.IsNaN(av.ThresholdPct) {
		t.Error("empty board adversary view should carry NaN threshold")
	}
}

func TestRunRowsValidation(t *testing.T) {
	d := dataset.VehicleN(stats.NewRand(11), 100)
	static, _ := trim.NewStatic("s", 0.9)
	adv, _ := attack.NewPoint("p", 0.99)
	good := RowConfig{
		Rounds: 3, Batch: 50, AttackRatio: 0.2,
		Data: d, Collector: static, Adversary: adv,
		Rng: stats.NewRand(12),
	}
	cases := []func(*RowConfig){
		func(c *RowConfig) { c.Rounds = 0 },
		func(c *RowConfig) { c.Data = nil },
		func(c *RowConfig) { c.Collector = nil },
		func(c *RowConfig) { c.Adversary = nil },
		func(c *RowConfig) { c.Rng = nil },
		func(c *RowConfig) { c.AttackRatio = math.NaN() },
	}
	for i, mutate := range cases {
		cfg := good
		mutate(&cfg)
		if _, err := RunRows(cfg); err == nil {
			t.Errorf("case %d should fail validation", i)
		}
	}
}

func TestRunRowsPoisonAndLabels(t *testing.T) {
	d := dataset.VehicleN(stats.NewRand(13), 400)
	static, _ := trim.NewStatic("s", 0.9)
	adv, _ := attack.NewPoint("p", 0.99)
	res, err := RunRows(RowConfig{
		Rounds: 5, Batch: 100, AttackRatio: 0.2,
		Data: d, Collector: static, Adversary: adv,
		PoisonLabel: -1,
		Rng:         stats.NewRand(14),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Kept.Len() == 0 {
		t.Fatal("nothing kept")
	}
	if err := res.Kept.Validate(); err != nil {
		t.Fatal(err)
	}
	if !res.Kept.Labeled() {
		t.Error("labels must travel with rows")
	}
	var keptTotal int
	for _, rec := range res.Board.Records {
		keptTotal += rec.HonestKept + rec.PoisonKept
	}
	if res.Kept.Len() != keptTotal {
		t.Errorf("kept %d rows, accounting says %d", res.Kept.Len(), keptTotal)
	}
	// Static 0.9 trim against 99th-percentile poison: most poison gone.
	if res.Board.PoisonRetention() > 0.12 {
		t.Errorf("row-game poison retention = %v", res.Board.PoisonRetention())
	}
}

func TestRunRowsOstrichRetainsPoison(t *testing.T) {
	d := dataset.VehicleN(stats.NewRand(15), 300)
	adv, _ := attack.NewPoint("p", 0.99)
	res, err := RunRows(RowConfig{
		Rounds: 4, Batch: 100, AttackRatio: 0.3,
		Data: d, Collector: trim.Ostrich{}, Adversary: adv,
		Rng: stats.NewRand(16),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.KeptPoison != 4*30 {
		t.Errorf("Ostrich kept %d poison rows, want all 120", res.KeptPoison)
	}
}

func TestRunLDPValidationAndBasics(t *testing.T) {
	taxi := dataset.TaxiN(stats.NewRand(17), 20000)
	inputs, err := taxi.Column(0)
	if err != nil {
		t.Fatal(err)
	}
	mech, err := ldp.NewPiecewise(3)
	if err != nil {
		t.Fatal(err)
	}
	static, _ := trim.NewStatic("s", 0.95)
	adv, _ := attack.NewPoint("p", 0.99)
	good := LDPConfig{
		Rounds: 5, Batch: 1000, AttackRatio: 0.1,
		Inputs: inputs, Mechanism: mech,
		Collector: static, Adversary: adv,
		Rng: stats.NewRand(18),
	}
	bad := []func(*LDPConfig){
		func(c *LDPConfig) { c.Rounds = 0 },
		func(c *LDPConfig) { c.Inputs = nil },
		func(c *LDPConfig) { c.Mechanism = nil },
		func(c *LDPConfig) { c.Collector = nil },
		func(c *LDPConfig) { c.Adversary = nil },
		func(c *LDPConfig) { c.Rng = nil },
	}
	for i, mutate := range bad {
		cfg := good
		mutate(&cfg)
		if _, err := RunLDP(cfg); err == nil {
			t.Errorf("case %d should fail validation", i)
		}
	}

	res, err := RunLDP(good)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.AllReports) != 5*(1000+100) {
		t.Errorf("AllReports = %d", len(res.AllReports))
	}
	if math.IsNaN(res.MeanEstimate) {
		t.Error("mean estimate is NaN")
	}
	// Trimmed mean with a 0.95 threshold on symmetric-noise reports should
	// land within a loose band of the true mean.
	if math.Abs(res.MeanEstimate-res.TrueMean) > 0.5 {
		t.Errorf("estimate %v vs true %v", res.MeanEstimate, res.TrueMean)
	}
}

func TestRunLDPTrimmingBeatsOstrichUnderAttack(t *testing.T) {
	taxi := dataset.TaxiN(stats.NewRand(19), 20000)
	inputs, _ := taxi.Column(0)
	mech, _ := ldp.NewPiecewise(3)
	adv, _ := attack.NewPoint("p", 0.999)

	run := func(col trim.Strategy, seed int64) float64 {
		res, err := RunLDP(LDPConfig{
			Rounds: 10, Batch: 2000, AttackRatio: 0.3,
			Inputs: inputs, Mechanism: mech,
			Collector: col, Adversary: adv,
			Rng: stats.NewRand(seed),
		})
		if err != nil {
			t.Fatal(err)
		}
		return math.Abs(res.MeanEstimate - res.TrueMean)
	}
	static, _ := trim.NewStatic("s", 0.92)
	// Average over a few seeds to damp LDP noise.
	var errOstrich, errTrim float64
	for s := int64(0); s < 3; s++ {
		errOstrich += run(trim.Ostrich{}, 100+s)
		errTrim += run(static, 200+s)
	}
	if errTrim >= errOstrich {
		t.Errorf("trimming error %v not below Ostrich %v under 30%% attack", errTrim/3, errOstrich/3)
	}
}
