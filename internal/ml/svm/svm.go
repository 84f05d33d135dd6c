// Package svm implements an RBF-kernel support vector machine trained with
// kernelized Pegasos (Shalev-Shwartz et al., 2007) and a one-vs-rest
// reduction for multiclass problems (TrainKernel, kernel.go). It is the
// classification consumer of the paper's Fig 6(a)/Fig 7 experiments, which
// report accuracy and per-class PPV/FDR (Confusion) on the labeled Control
// dataset. The linear Pegasos SVM below (Train) cannot separate
// control-chart classes that share a mean, so no harness uses it; it is
// staged for deletion with its tests.
package svm

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/stats"
)

// Model is a trained binary linear SVM: f(x) = w·x + b.
type Model struct {
	W []float64
	B float64
}

// Decision returns the signed margin for x.
func (m *Model) Decision(x []float64) float64 {
	return stats.Dot(m.W, x) + m.B
}

// Predict returns the binary label in {−1, +1}.
//
//trimlint:allow deadexport staged: only tests call it (the linear SVM and Multiclass tests)
func (m *Model) Predict(x []float64) int {
	if m.Decision(x) >= 0 {
		return 1
	}
	return -1
}

// Config controls training.
type Config struct {
	Lambda float64 // regularization, default 1e-4
	Epochs int     // passes over the data, default 20
}

func (c *Config) setDefaults() {
	if c.Lambda <= 0 {
		c.Lambda = 1e-4
	}
	if c.Epochs <= 0 {
		c.Epochs = 20
	}
}

// TrainBinary fits a binary SVM on rows with labels in {−1, +1}.
func TrainBinary(rng *rand.Rand, rows [][]float64, labels []int, cfg Config) (*Model, error) {
	cfg.setDefaults()
	if len(rows) == 0 {
		return nil, fmt.Errorf("svm: no training rows")
	}
	if len(rows) != len(labels) {
		return nil, fmt.Errorf("svm: %d rows but %d labels", len(rows), len(labels))
	}
	for i, y := range labels {
		if y != -1 && y != 1 {
			return nil, fmt.Errorf("svm: label[%d] = %d, want ±1", i, y)
		}
	}
	dim := len(rows[0])
	w := make([]float64, dim)
	var b float64
	t := 0
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		perm := rng.Perm(len(rows))
		for _, i := range perm {
			t++
			eta := 1 / (cfg.Lambda * float64(t))
			x, y := rows[i], float64(labels[i])
			margin := y * (stats.Dot(w, x) + b)
			// Sub-gradient step: shrink w, and on a margin violation also
			// step toward the violating example.
			for j := range w {
				w[j] *= 1 - eta*cfg.Lambda
			}
			if margin < 1 {
				for j := range w {
					w[j] += eta * y * x[j]
				}
				b += eta * y
			}
			// Pegasos projection onto the ‖w‖ ≤ 1/√λ ball.
			if n := stats.Norm(w); n > 0 {
				r := 1 / (math.Sqrt(cfg.Lambda) * n)
				if r < 1 {
					stats.Scale(w, r)
				}
			}
		}
	}
	return &Model{W: w, B: b}, nil
}

// Multiclass is a one-vs-rest ensemble over classes 0..K−1.
type Multiclass struct {
	Models  []*Model
	Classes int
}

// Train fits a one-vs-rest multiclass SVM. Labels must be in [0, classes).
//
//trimlint:allow deadexport staged: only tests call it (the linear SVM and Multiclass tests)
func Train(rng *rand.Rand, rows [][]float64, labels []int, classes int, cfg Config) (*Multiclass, error) {
	if classes < 2 {
		return nil, fmt.Errorf("svm: %d classes", classes)
	}
	if len(rows) != len(labels) {
		return nil, fmt.Errorf("svm: %d rows but %d labels", len(rows), len(labels))
	}
	for i, y := range labels {
		if y < 0 || y >= classes {
			return nil, fmt.Errorf("svm: label[%d] = %d outside [0,%d)", i, y, classes)
		}
	}
	mc := &Multiclass{Models: make([]*Model, classes), Classes: classes}
	bin := make([]int, len(labels))
	for c := 0; c < classes; c++ {
		for i, y := range labels {
			if y == c {
				bin[i] = 1
			} else {
				bin[i] = -1
			}
		}
		m, err := TrainBinary(rng, rows, bin, cfg)
		if err != nil {
			return nil, fmt.Errorf("svm: class %d: %w", c, err)
		}
		mc.Models[c] = m
	}
	return mc, nil
}

// Predict returns the class with the largest one-vs-rest margin.
func (mc *Multiclass) Predict(x []float64) int {
	best, bestV := 0, math.Inf(-1)
	for c, m := range mc.Models {
		if v := m.Decision(x); v > bestV {
			best, bestV = c, v
		}
	}
	return best
}

// Accuracy returns the fraction of rows whose prediction matches labels.
//
//trimlint:allow deadexport staged: only tests call it (the linear SVM and Multiclass tests)
func (mc *Multiclass) Accuracy(rows [][]float64, labels []int) float64 {
	if len(rows) == 0 {
		return math.NaN()
	}
	hit := 0
	for i, x := range rows {
		if mc.Predict(x) == labels[i] {
			hit++
		}
	}
	return float64(hit) / float64(len(rows))
}

// Confusion is a square confusion matrix: Counts[actual][predicted].
type Confusion struct {
	Counts  [][]int
	Classes int
}

// NewConfusion evaluates the model on rows/labels.
//
//trimlint:allow deadexport staged: only tests call it (the linear SVM and Multiclass tests)
func (mc *Multiclass) NewConfusion(rows [][]float64, labels []int) *Confusion {
	cm := &Confusion{Classes: mc.Classes, Counts: make([][]int, mc.Classes)}
	for i := range cm.Counts {
		cm.Counts[i] = make([]int, mc.Classes)
	}
	for i, x := range rows {
		cm.Counts[labels[i]][mc.Predict(x)]++
	}
	return cm
}

// PPV returns the positive predictive value (precision) per predicted class:
// TP / (TP + FP). Classes never predicted yield NaN. Fig 6(a) and Fig 7
// report PPV and FDR rows under each confusion matrix.
func (cm *Confusion) PPV() []float64 {
	out := make([]float64, cm.Classes)
	for p := 0; p < cm.Classes; p++ {
		var tp, col int
		for a := 0; a < cm.Classes; a++ {
			col += cm.Counts[a][p]
			if a == p {
				tp = cm.Counts[a][p]
			}
		}
		if col == 0 {
			out[p] = math.NaN()
		} else {
			out[p] = float64(tp) / float64(col)
		}
	}
	return out
}

// FDR returns the false discovery rate per predicted class, 1 − PPV.
func (cm *Confusion) FDR() []float64 {
	ppv := cm.PPV()
	out := make([]float64, len(ppv))
	for i, v := range ppv {
		out[i] = 1 - v
	}
	return out
}

// Accuracy returns overall accuracy from the confusion counts.
func (cm *Confusion) Accuracy() float64 {
	var hit, total int
	for a := range cm.Counts {
		for p, n := range cm.Counts[a] {
			total += n
			if a == p {
				hit += n
			}
		}
	}
	if total == 0 {
		return math.NaN()
	}
	return float64(hit) / float64(total)
}
