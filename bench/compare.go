package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/stats"
)

// spec is the part of BENCHMARK.json the benchmark reads: which metrics
// the result line carries in each mode, and the bounds -compare judges by.
type spec struct {
	EndToEnd  []specMetric `json:"end_to_end"`
	PerLayer  []specMetric `json:"per_layer"` // Bound is 0: per-layer metrics have none
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// specPath is BENCHMARK.json in the working directory, or in its parent
// when the benchmark runs from bench/ itself (go -C bench run/test).
func specPath() string {
	if _, err := os.Stat("BENCHMARK.json"); err != nil {
		return filepath.Join("..", "BENCHMARK.json")
	}
	return "BENCHMARK.json"
}

func loadSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s := &spec{}
	if err := json.Unmarshal(b, s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// runCompare reads two sets of result files, split by "--", and prints for
// every (workload, metric) both sides measured each side's median,
// quartiles and spread — the quartile distance over the median — and a
// verdict: against the bound for an end-to-end metric, by the gain rule
// alone for a per-layer one.
func runCompare(args []string, stdout, stderr io.Writer) int {
	var a, b []string
	side := &a
	for _, arg := range args {
		if arg == "--" {
			side = &b
			continue
		}
		*side = append(*side, arg)
	}
	if len(a) == 0 || len(b) == 0 {
		fmt.Fprintln(stderr, "bench: -compare needs result files on both sides: -compare A.json... -- B.json...")
		return 2
	}
	sp, err := loadSpec(specPath())
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	va, err := loadValues(a)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	vb, err := loadValues(b)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%-18s %-32s %28s %7s %28s %7s %8s %6s  %s\n", "workload", "metric",
		fmt.Sprintf("A median [q1, q3] (n=%d)", len(a)), "spread", fmt.Sprintf("B median [q1, q3] (n=%d)", len(b)), "spread",
		"B/A-1", "bound", "verdict")
	all := append(sp.EndToEnd[:len(sp.EndToEnd):len(sp.EndToEnd)], sp.PerLayer...)
	for _, wl := range sp.Workloads {
		for _, m := range all {
			xa, xb := va[wl.Name][m.Name], vb[wl.Name][m.Name]
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			qa, qb := quartiles(xa), quartiles(xb)
			if qa[1] == 0 && qb[1] == 0 {
				continue // a layer this workload does not have
			}
			bound := "-"
			if m.Bound > 0 {
				bound = fmt.Sprintf("%.0f%%", 100*m.Bound)
			}
			fmt.Fprintf(stdout, "%-18s %-32s %28s %6.2f%% %28s %6.2f%% %+7.2f%% %6s  %s\n", wl.Name, m.Name,
				fmt.Sprintf("%.5g [%.5g, %.5g]", qa[1], qa[0], qa[2]), 100*spread(qa),
				fmt.Sprintf("%.5g [%.5g, %.5g]", qb[1], qb[0], qb[2]), 100*spread(qb),
				100*(qb[1]/qa[1]-1), bound, verdict(xa, xb, m.Better == "lower", m.Bound))
		}
	}
	return 0
}

// loadValues reads result files into workload → metric → values, one value
// per file in file order.
func loadValues(files []string) (map[string]map[string][]float64, error) {
	out := map[string]map[string][]float64{}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r resultFile
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		for _, wr := range r.Workloads {
			if out[wr.Name] == nil {
				out[wr.Name] = map[string][]float64{}
			}
			for _, m := range append(wr.Metrics, wr.Layers...) {
				out[wr.Name][m.Name] = append(out[wr.Name][m.Name], m.Value)
			}
		}
	}
	return out, nil
}

// quartiles returns the first quartile, median and third quartile.
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return [3]float64{stats.QuantileSorted(s, 0.25), stats.QuantileSorted(s, 0.5), stats.QuantileSorted(s, 0.75)}
}

// spread is the quartile distance over the median.
func spread(q [3]float64) float64 { return (q[2] - q[0]) / q[1] }

// minPairs is the fewest pairs a gain may be claimed on.
const minPairs = 10

// verdict judges side b against side a (the parent), pairing runs by
// position:
//
//   - better: at least minPairs pairs, b wins at least nine tenths of them,
//     ties counting for neither, and the medians differ by more than a's
//     quartile spread;
//   - worse: b's median is worse than a's by more than the bound or, for a
//     metric without a bound (0), by the mirror of the rule for better;
//   - unresolved: otherwise, for a metric without a bound, or when either
//     side's quartile spread is wider than the bound, unless every run of b
//     reads better than every run of a;
//   - unchanged: otherwise.
func verdict(a, b []float64, lowerBetter bool, bound float64) string {
	sign := 1.0 // > 0 means worse
	if !lowerBetter {
		sign = -1
	}
	qa, qb := quartiles(a), quartiles(b)
	pairs, wins, losses := min(len(a), len(b)), 0, 0
	for i := 0; i < pairs; i++ {
		switch d := sign * (b[i] - a[i]); {
		case d < 0:
			wins++
		case d > 0:
			losses++
		}
	}
	worse := sign * (qb[1] - qa[1]) / qa[1]
	clear := pairs >= minPairs && math.Abs(qb[1]-qa[1]) > qa[2]-qa[0]
	switch {
	case worse < 0 && clear && 10*wins >= 9*pairs:
		return "better"
	case bound == 0 && worse > 0 && clear && 10*losses >= 9*pairs:
		return "worse"
	case bound == 0:
		return "unresolved"
	case worse > bound:
		return "worse"
	}
	bestA, worstB := extreme(a, -sign), extreme(b, sign)
	if math.Max(spread(qa), spread(qb)) > bound && sign*(worstB-bestA) >= 0 {
		return "unresolved"
	}
	return "unchanged"
}

// extreme returns the largest of xs by sign·x.
func extreme(xs []float64, sign float64) float64 {
	best := xs[0]
	for _, x := range xs[1:] {
		if sign*x > sign*best {
			best = x
		}
	}
	return best
}
