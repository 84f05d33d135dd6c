package experiments

import (
	"fmt"
	"io"
	"math"
	"math/rand"

	"repro/internal/collect"
	"repro/internal/dataset"
	"repro/internal/ml/kmeans"
	"repro/internal/stats"
)

// KMeansPoint is one (attack ratio, scheme) measurement of Fig 4/Fig 5:
// the SSE of k-means on the collected (poisoned + trimmed) data and the
// centroid distance to the clean clustering.
type KMeansPoint struct {
	Scheme      SchemeName
	AttackRatio float64
	SSE         float64
	Distance    float64
}

// KMeansSeries is one dataset × attack-ratio-interval panel.
type KMeansSeries struct {
	Dataset  string
	Interval [2]float64
	Points   []KMeansPoint // ordered by scheme, then ratio
	CleanSSE float64       // Groundtruth SSE for reference
}

// KMeansResult is a full Fig 4 or Fig 5: three datasets × three intervals.
type KMeansResult struct {
	Tth    float64
	Panels []KMeansSeries
}

// AttackIntervals are the paper's three regimes: few, moderate, many
// poison values.
var AttackIntervals = [][2]float64{{0, 0.01}, {0.05, 0.15}, {0.2, 0.5}}

// ratioGrid returns n evenly spaced ratios across the interval (inclusive).
func ratioGrid(iv [2]float64, n int) []float64 {
	if n == 1 {
		return []float64{(iv[0] + iv[1]) / 2}
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = iv[0] + (iv[1]-iv[0])*float64(i)/float64(n-1)
	}
	return out
}

// datasetsFor builds the three Fig 4/5 datasets at the scale's budget.
func datasetsFor(sc Scale) []*dataset.Dataset {
	rng := stats.NewRand(sc.Seed)
	n := sc.DatasetN
	control := dataset.Control(rng)
	vehicle := dataset.Vehicle(rng)
	letterN := dataset.LetterSize
	if n > 0 && n < letterN {
		letterN = n * 4 // Letter needs room for 26 clusters
		if letterN < 26*20 {
			letterN = 26 * 20
		}
	}
	letter := dataset.LetterN(rng, letterN)
	return []*dataset.Dataset{control, vehicle, letter}
}

// Fig4 reproduces the k-means comparison with Tth = 0.9.
func Fig4(sc Scale, pointsPerInterval int) (*KMeansResult, error) {
	return kmeansFigure(sc, 0.9, pointsPerInterval)
}

// Fig5 reproduces the k-means comparison with Tth = 0.97.
func Fig5(sc Scale, pointsPerInterval int) (*KMeansResult, error) {
	return kmeansFigure(sc, 0.97, pointsPerInterval)
}

func kmeansFigure(sc Scale, tth float64, pointsPerInterval int) (*KMeansResult, error) {
	if pointsPerInterval <= 0 {
		pointsPerInterval = 3
	}
	res := &KMeansResult{Tth: tth}
	for _, ds := range datasetsFor(sc) {
		// Clean reference clustering, averaged over repetitions for a
		// stable baseline.
		cleanRng := stats.NewRand(sc.Seed + 100)
		clean, err := kmeans.Fit(cleanRng, ds.X, kmeans.Config{K: ds.Clusters, Restarts: 2})
		if err != nil {
			return nil, err
		}
		for _, iv := range AttackIntervals {
			panel := KMeansSeries{Dataset: ds.Name, Interval: iv, CleanSSE: clean.SSE}
			for _, scheme := range AllSchemes {
				for _, ratio := range ratioGrid(iv, pointsPerInterval) {
					var sseSum, distSum float64
					for rep := 0; rep < sc.Repetitions; rep++ {
						// Common random numbers: the same seed (and thus the
						// same attack direction and honest draws) is shared by
						// every scheme within a repetition, so scheme ordering
						// reflects strategy rather than draw variance.
						sse, dist, err := kmeansGameOnce(ds, clean.Centroids, scheme, tth, ratio,
							sc, stats.NewRand(sc.Seed+int64(rep)*7919))
						if err != nil {
							return nil, err
						}
						sseSum += sse
						distSum += dist
					}
					n := float64(sc.Repetitions)
					panel.Points = append(panel.Points, KMeansPoint{
						Scheme:      scheme,
						AttackRatio: ratio,
						SSE:         sseSum / n,
						Distance:    distSum / n,
					})
				}
			}
			res.Panels = append(res.Panels, panel)
		}
	}
	return res, nil
}

// kmeansGameOnce plays one collection game and scores the clustering.
func kmeansGameOnce(ds *dataset.Dataset, cleanCentroids [][]float64, name SchemeName,
	tth, ratio float64, sc Scale, rng *rand.Rand) (sse, dist float64, err error) {

	scheme, err := NewScheme(name, tth, 0.5 /* generous: untriggered, per §VI-B */)
	if err != nil {
		return 0, 0, err
	}
	out, err := collect.RunRows(collect.RowConfig{
		Rounds:      sc.Rounds,
		Batch:       sc.Batch,
		AttackRatio: ratio,
		Data:        ds,
		Collector:   scheme.Collector,
		Adversary:   scheme.Adversary,
		PoisonLabel: -1,
		// The figure compares schemes under common random numbers and a
		// single-restart k-means fit, so which *boundary* rows survive
		// trimming materially moves the fitted centroids. Pin the exact
		// quantile path to keep the reproduction bit-comparable to the
		// paper's sort-based pipeline; the ε-approximate default is
		// equivalence-tested in internal/collect and measured in the
		// sharded scaling study.
		ExactQuantiles: true,
		Rng:            rng,
	})
	if err != nil {
		return 0, 0, err
	}
	if out.Kept.Len() < ds.Clusters {
		return 0, 0, fmt.Errorf("experiments: only %d rows kept", out.Kept.Len())
	}
	fit, err := kmeans.Fit(rng, out.Kept.X, kmeans.Config{K: ds.Clusters, Restarts: 1})
	if err != nil {
		return 0, 0, err
	}
	d, err := kmeans.CentroidDistance(fit.Centroids, cleanCentroids)
	if err != nil {
		return 0, 0, err
	}
	// SSE is evaluated on the *clean* dataset under the fitted centroids:
	// how well the clustering learned from poisoned-then-trimmed data
	// explains the true distribution. Scoring the kept data instead would
	// let a tight poison cluster dilute its own damage (it earns a centroid
	// and contributes ≈0 SSE); the paper's MATLAB pipeline does not face
	// this degeneracy because its real attack mass is dispersed.
	sse = 0
	for _, row := range ds.X {
		best := math.Inf(1)
		for _, c := range fit.Centroids {
			if v := stats.SquaredEuclidean(row, c); v < best {
				best = v
			}
		}
		sse += best
	}
	return sse, d, nil
}

// Print emits the figure as aligned text panels.
func (r *KMeansResult) Print(w io.Writer) {
	fmt.Fprintf(w, "K-means clustering results, Tth=%.2f (per panel: scheme, ratio, SSE, Distance)\n", r.Tth)
	for _, panel := range r.Panels {
		fmt.Fprintf(w, "\n%s[%g,%g]  (clean SSE %.4g)\n", panel.Dataset, panel.Interval[0], panel.Interval[1], panel.CleanSSE)
		fmt.Fprintf(w, "%-16s %-12s %-14s %-14s\n", "scheme", "ratio", "SSE", "Distance")
		for _, p := range panel.Points {
			fmt.Fprintf(w, "%-16s %-12.4f %-14.6g %-14.6g\n", p.Scheme, p.AttackRatio, p.SSE, p.Distance)
		}
	}
}

// SchemeSeries extracts the (ratio, SSE, Distance) series of one scheme in
// one panel, for tests and downstream analysis.
//
//trimlint:allow deadexport reproduction evidence: the figure tests read the paper's series through it
func (r *KMeansResult) SchemeSeries(datasetName string, interval [2]float64, scheme SchemeName) []KMeansPoint {
	var out []KMeansPoint
	for _, panel := range r.Panels {
		if panel.Dataset != datasetName || panel.Interval != interval {
			continue
		}
		for _, p := range panel.Points {
			if p.Scheme == scheme {
				out = append(out, p)
			}
		}
	}
	return out
}
