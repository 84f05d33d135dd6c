package dataset

import (
	"math"
	"math/rand"

	"repro/internal/stats"
)

// Taxi's published shape: 1,048,575 pick-up times (seconds of day) in
// [0, 86340], normalized to [−1, 1].
const (
	TaxiSize   = 1048575
	TaxiMaxSec = 86340
)

// Taxi generates a stand-in for the January 2018 NYC taxi pick-up times:
// a mixture of a morning rush (~8am), an evening rush (~6-7pm), a late-night
// component and a uniform base rate, normalized to [−1, 1]. The generator
// reproduces the multi-modal, bounded, single-feature shape that the LDP
// experiment (Fig 9) depends on.
//
// The full paper-size dataset is ~8 MB of float64; TaxiN allows scaled-down
// variants for tests.
func Taxi(rng *rand.Rand) *Dataset {
	return TaxiN(rng, TaxiSize)
}

// TaxiN generates a Taxi-style dataset with n instances.
func TaxiN(rng *rand.Rand, n int) *Dataset {
	hour := 3600.0
	comps := []stats.MixtureComponent{
		{Weight: 0.25, Mu: 8 * hour, Sigma: 1.5 * hour},  // morning rush
		{Weight: 0.35, Mu: 18.5 * hour, Sigma: 2 * hour}, // evening rush
		{Weight: 0.15, Mu: 23 * hour, Sigma: 1.5 * hour}, // nightlife
		{Weight: 0.10, Mu: 13 * hour, Sigma: 2 * hour},   // midday
	}
	d := &Dataset{Name: "TAXI", Clusters: 1, X: make([][]float64, n)}
	for i := range d.X {
		var sec float64
		if rng.Float64() < 0.15 {
			sec = rng.Float64() * TaxiMaxSec // uniform base rate
		} else {
			sec = stats.Mixture(rng, comps)
		}
		// Wrap into the day and quantize to whole seconds like the source
		// data (pick-up timestamps have 1-second resolution).
		sec = math.Mod(sec, TaxiMaxSec)
		if sec < 0 {
			sec += TaxiMaxSec
		}
		sec = math.Floor(sec)
		d.X[i] = []float64{NormalizeTaxi(sec)}
	}
	return d
}

// NormalizeTaxi maps seconds-of-day in [0, TaxiMaxSec] to [−1, 1], the
// domain the paper's LDP mechanisms operate on.
func NormalizeTaxi(sec float64) float64 {
	return 2*sec/TaxiMaxSec - 1
}
