package main

import (
	"io"
	"math"
	"testing"
	"time"
)

// raceDetector is set in -race builds (race_test.go), which run several
// times slower than the smoke test's time budget assumes.
var raceDetector bool

// tiny shrinks a workload to smoke-test size, keeping its game, topology
// and code path.
func (w workload) tiny() workload {
	w.rounds = warmRounds + 12
	w.batch = min(w.batch, 400)
	w.pool = min(w.pool, 2000)
	return w
}

// TestSmoke plays every workload at tiny size through measure, traced, and
// checks the benchmark's contract: every metric BENCHMARK.json names is
// reported with its unit and is finite, every game verifies against the
// reference, and the traced self times add back up to the round wall with
// no clamped self time.
func TestSmoke(t *testing.T) {
	start := time.Now()
	sp, err := loadSpec(specPath())
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(sp.Workloads), len(workloads))
	}
	for _, sw := range sp.Workloads {
		w, ok := lookup(sw.Name)
		if !ok {
			t.Errorf("BENCHMARK.json workload %q is not a benchmark workload", sw.Name)
			continue
		}
		wr, err := measure(w.tiny(), options{seed: 1, trace: true}, io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if wr.Failed != 0 || wr.Games < minGames || wr.TracedGames < minGames {
			t.Errorf("%s: %d of %d games failed (%d timed, %d traced)", w.name, wr.Failed, wr.Attempted, wr.Games, wr.TracedGames)
		}
		got := map[string]metric{}
		for _, m := range append(wr.Metrics, wr.Layers...) {
			got[m.Name] = m
		}
		check := func(name, unit string) {
			m, ok := got[name]
			switch {
			case !ok:
				t.Errorf("%s: metric %s not reported", w.name, name)
			case m.Unit != unit:
				t.Errorf("%s: metric %s in %q, BENCHMARK.json says %q", w.name, name, m.Unit, unit)
			case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
				t.Errorf("%s: metric %s = %v", w.name, name, m.Value)
			}
		}
		for _, m := range sp.EndToEnd {
			check(m.Name, m.Unit)
		}
		for _, m := range sp.PerLayer {
			check(m.Name, m.Unit)
		}
		// The self times telescope to the round wall by construction; what
		// can break that is fan-outs overlapping or a self time clamped at 0.
		if wr.Clamps != 0 {
			t.Errorf("%s: %d self times came out negative (%.3f ms clamped)", w.name, wr.Clamps, wr.ClampedMs)
		}
		if math.Abs(wr.Reconcile-1) > 0.05 {
			t.Errorf("%s: per-layer self times sum to %.1f%% of the round wall", w.name, 100*wr.Reconcile)
		}
	}
	if d := time.Since(start); d > 10*time.Second && !raceDetector {
		t.Errorf("smoke test took %v, want under 10s", d)
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	for _, c := range []struct {
		name        string
		a, b        []float64
		lowerBetter bool
		bound       float64
		want        string
	}{
		{"same runs", base, base, true, 0.1, "unchanged"},
		{"20% slower, lower is better", base, shift(base, 1.2), true, 0.1, "worse"},
		{"20% faster, lower is better", base, shift(base, 0.8), true, 0.1, "better"},
		{"20% lower, higher is better", base, shift(base, 0.8), false, 0.1, "worse"},
		{"spread wider than the bound", base, noisy, true, 0.1, "unresolved"},
		{"20% faster on too few pairs", base[:5], shift(base[:5], 0.8), true, 0.1, "unchanged"},
		{"no bound: same runs", base, base, true, 0, "unresolved"},
		{"no bound: 20% slower", base, shift(base, 1.2), true, 0, "worse"},
		{"no bound: 20% faster", base, shift(base, 0.8), true, 0, "better"},
		{"no bound: 20% slower on too few pairs", base[:5], shift(base[:5], 1.2), true, 0, "unresolved"},
	} {
		if got := verdict(c.a, c.b, c.lowerBetter, c.bound); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}
