package kmeans

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/dataset"
	"repro/internal/stats"
)

func blobs(seed int64) [][]float64 {
	rng := stats.NewRand(seed)
	rows := make([][]float64, 0, 300)
	centers := [][]float64{{0, 0}, {10, 10}, {-10, 10}}
	for _, c := range centers {
		for i := 0; i < 100; i++ {
			rows = append(rows, []float64{
				stats.Normal(rng, c[0], 0.5),
				stats.Normal(rng, c[1], 0.5),
			})
		}
	}
	return rows
}

func TestFitRecoversBlobs(t *testing.T) {
	rows := blobs(1)
	res, err := Fit(stats.NewRand(2), rows, Config{K: 3, Restarts: 3})
	if err != nil {
		t.Fatal(err)
	}
	want := [][]float64{{0, 0}, {10, 10}, {-10, 10}}
	d, err := CentroidDistance(res.Centroids, want)
	if err != nil {
		t.Fatal(err)
	}
	if d > 1.0 {
		t.Errorf("centroid distance to truth = %v, want <1", d)
	}
	if res.SSE <= 0 {
		t.Errorf("SSE = %v, want >0 on noisy blobs", res.SSE)
	}
	if res.Iterations <= 0 {
		t.Error("Iterations not recorded")
	}
}

func TestFitValidation(t *testing.T) {
	rows := [][]float64{{1}, {2}}
	if _, err := Fit(stats.NewRand(1), rows, Config{K: 0}); err == nil {
		t.Error("k=0 should error")
	}
	if _, err := Fit(stats.NewRand(1), rows, Config{K: 5}); err == nil {
		t.Error("k>n should error")
	}
}

func TestFitK1MatchesMean(t *testing.T) {
	rows := [][]float64{{1, 1}, {3, 5}, {5, 3}}
	res, err := Fit(stats.NewRand(1), rows, Config{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	mean, _ := stats.MeanVector(rows)
	if stats.Euclidean(res.Centroids[0], mean) > 1e-9 {
		t.Errorf("k=1 centroid %v, want mean %v", res.Centroids[0], mean)
	}
}

func TestFitIdenticalPoints(t *testing.T) {
	rows := [][]float64{{2, 2}, {2, 2}, {2, 2}, {2, 2}}
	res, err := Fit(stats.NewRand(1), rows, Config{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.SSE != 0 {
		t.Errorf("SSE on identical points = %v, want 0", res.SSE)
	}
}

func TestAssignmentConsistency(t *testing.T) {
	rows := blobs(3)
	res, err := Fit(stats.NewRand(4), rows, Config{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Every row must be assigned to its genuinely nearest centroid.
	for i, row := range rows {
		got := res.Assignment[i]
		for c := range res.Centroids {
			if stats.SquaredEuclidean(row, res.Centroids[c]) <
				stats.SquaredEuclidean(row, res.Centroids[got])-1e-9 {
				t.Fatalf("row %d assigned to %d but %d is nearer", i, got, c)
			}
		}
	}
}

func TestSSEDecomposition(t *testing.T) {
	rows := blobs(5)
	res, err := Fit(stats.NewRand(6), rows, Config{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	var sse float64
	for i, row := range rows {
		sse += stats.SquaredEuclidean(row, res.Centroids[res.Assignment[i]])
	}
	if math.Abs(sse-res.SSE) > 1e-6 {
		t.Errorf("reported SSE %v != recomputed %v", res.SSE, sse)
	}
}

func TestRestartsNeverWorse(t *testing.T) {
	rows := blobs(7)
	one, err := Fit(stats.NewRand(8), rows, Config{K: 3, Restarts: 1})
	if err != nil {
		t.Fatal(err)
	}
	many, err := Fit(stats.NewRand(8), rows, Config{K: 3, Restarts: 5})
	if err != nil {
		t.Fatal(err)
	}
	if many.SSE > one.SSE+1e-9 {
		t.Errorf("5 restarts SSE %v worse than 1 restart %v", many.SSE, one.SSE)
	}
}

func TestCentroidDistance(t *testing.T) {
	a := [][]float64{{0, 0}, {1, 1}}
	b := [][]float64{{1, 1}, {0, 0}} // permuted
	d, err := CentroidDistance(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if d != 0 {
		t.Errorf("permutation-invariant distance = %v, want 0", d)
	}
	if _, err := CentroidDistance(a, [][]float64{{0, 0}}); err == nil {
		t.Error("count mismatch should error")
	}
	c := [][]float64{{0, 3}, {1, 1}}
	d, _ = CentroidDistance(a, c)
	if d != 3 {
		t.Errorf("distance = %v, want 3", d)
	}
}

func TestOnControlDataset(t *testing.T) {
	d := dataset.Control(stats.NewRand(9))
	res, err := Fit(stats.NewRand(10), d.X, Config{K: d.Clusters, Restarts: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Centroids) != 6 {
		t.Fatalf("got %d centroids", len(res.Centroids))
	}
	// Poisoning the dataset must increase SSE relative to clean data when
	// measured against the clean centroids — sanity for the Fig 4 pipeline.
	poisoned := slices.Clone(d.X)
	rng := stats.NewRand(11)
	for i := 0; i < 120; i++ {
		row := make([]float64, d.Dim())
		for j := range row {
			row[j] = 200 + rng.Float64()*50 // far outside control-chart range
		}
		poisoned = append(poisoned, row)
	}
	resP, err := Fit(stats.NewRand(12), poisoned, Config{K: d.Clusters, Restarts: 2})
	if err != nil {
		t.Fatal(err)
	}
	dist, err := CentroidDistance(res.Centroids, resP.Centroids)
	if err != nil {
		t.Fatal(err)
	}
	if dist < 1 {
		t.Errorf("poison moved centroids by only %v; expected visible shift", dist)
	}
}

// Property: SSE is never negative, and adding a duplicate of an existing row
// can only change SSE by a bounded non-negative amount for fixed centroids.
func TestSSENonNegativeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rows := blobs(seed % 1000)
		res, err := Fit(stats.NewRand(seed), rows, Config{K: 3})
		if err != nil {
			return false
		}
		return res.SSE >= 0
	}
	cfg := &quick.Config{MaxCount: 20}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
