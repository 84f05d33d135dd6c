package svm

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/stats"
)

// KernelModel is a binary RBF-kernel SVM trained with kernelized Pegasos:
// f(x) = (1/(λT)) Σ_i α_i y_i K(x_i, x). MATLAB's fitcsvm — the paper's SVM
// — defaults to a kernel machine; the linear Model cannot separate
// control-chart classes that share a mean, so the Fig 6(a)/Fig 7 pipeline
// uses this type.
type KernelModel struct {
	SupportX [][]float64
	Coef     []float64 // α_i · y_i / (λT), folded into one coefficient
	Gamma    float64
}

// KernelConfig controls kernel training.
type KernelConfig struct {
	Gamma  float64 // RBF width; default 1/(dim · mean feature variance)
	Lambda float64 // regularization, default 1e-5
	Epochs int     // default 10
}

func (c *KernelConfig) setDefaults(rows [][]float64) {
	if c.Lambda <= 0 {
		c.Lambda = 1e-5
	}
	if c.Epochs <= 0 {
		c.Epochs = 10
	}
	if c.Gamma <= 0 {
		c.Gamma = defaultGamma(rows)
	}
}

// defaultGamma is the scikit-learn-style heuristic γ = 1/(d·Var(X)).
func defaultGamma(rows [][]float64) float64 {
	if len(rows) == 0 || len(rows[0]) == 0 {
		return 1
	}
	dim := len(rows[0])
	var sum, sq float64
	var n int
	for _, r := range rows {
		for _, v := range r {
			sum += v
			sq += v * v
			n++
		}
	}
	mean := sum / float64(n)
	variance := sq/float64(n) - mean*mean
	if variance <= 0 {
		variance = 1
	}
	return 1 / (float64(dim) * variance)
}

// rbf evaluates exp(−γ‖a−b‖²).
func rbf(a, b []float64, gamma float64) float64 {
	return math.Exp(-gamma * stats.SquaredEuclidean(a, b))
}

// Decision returns the kernel decision value for x.
func (m *KernelModel) Decision(x []float64) float64 {
	var s float64
	for i, sv := range m.SupportX {
		if m.Coef[i] == 0 {
			continue
		}
		s += m.Coef[i] * rbf(sv, x, m.Gamma)
	}
	return s
}

// gram precomputes the RBF Gram matrix, shared by all one-vs-rest
// classifiers of a multiclass problem.
func gram(rows [][]float64, gamma float64) [][]float64 {
	n := len(rows)
	g := make([][]float64, n)
	for i := range g {
		g[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		g[i][i] = 1
		for j := i + 1; j < n; j++ {
			v := rbf(rows[i], rows[j], gamma)
			g[i][j] = v
			g[j][i] = v
		}
	}
	return g
}

// trainKernelBinary runs kernelized Pegasos against a precomputed Gram
// matrix. labels must be ±1.
func trainKernelBinary(rng *rand.Rand, g [][]float64, labels []int, cfg KernelConfig) []float64 {
	n := len(labels)
	alpha := make([]float64, n)
	T := cfg.Epochs * n
	t := 0
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		perm := rng.Perm(n)
		for _, i := range perm {
			t++
			var s float64
			for j := 0; j < n; j++ {
				if alpha[j] != 0 {
					s += alpha[j] * float64(labels[j]) * g[j][i]
				}
			}
			s /= cfg.Lambda * float64(t)
			if float64(labels[i])*s < 1 {
				alpha[i]++
			}
		}
	}
	// Fold 1/(λT) and y_i into the stored coefficient.
	coef := make([]float64, n)
	for i := range coef {
		coef[i] = alpha[i] * float64(labels[i]) / (cfg.Lambda * float64(T))
	}
	return coef
}

// KernelMulticlass is a one-vs-rest ensemble of RBF SVMs.
type KernelMulticlass struct {
	Models  []*KernelModel
	Classes int
}

// TrainKernel fits a one-vs-rest RBF SVM. Labels must be in [0, classes).
// The Gram matrix is computed once and shared across the per-class
// sub-problems.
func TrainKernel(rng *rand.Rand, rows [][]float64, labels []int, classes int, cfg KernelConfig) (*KernelMulticlass, error) {
	if len(rows) == 0 {
		return nil, fmt.Errorf("svm: no training rows")
	}
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
	cfg.setDefaults(rows)
	g := gram(rows, cfg.Gamma)
	mc := &KernelMulticlass{Models: make([]*KernelModel, classes), Classes: classes}
	bin := make([]int, len(labels))
	for c := 0; c < classes; c++ {
		for i, y := range labels {
			if y == c {
				bin[i] = 1
			} else {
				bin[i] = -1
			}
		}
		coef := trainKernelBinary(rng, g, bin, cfg)
		// Keep only support vectors (non-zero coefficients) to shrink the
		// model and speed up prediction.
		var svx [][]float64
		var svc []float64
		for i, cf := range coef {
			if cf != 0 {
				svx = append(svx, rows[i])
				svc = append(svc, cf)
			}
		}
		mc.Models[c] = &KernelModel{SupportX: svx, Coef: svc, Gamma: cfg.Gamma}
	}
	return mc, nil
}

// Predict returns the class with the largest one-vs-rest decision value.
func (mc *KernelMulticlass) Predict(x []float64) int {
	best, bestV := 0, math.Inf(-1)
	for c, m := range mc.Models {
		if v := m.Decision(x); v > bestV {
			best, bestV = c, v
		}
	}
	return best
}

// Accuracy returns the fraction of rows classified correctly.
func (mc *KernelMulticlass) Accuracy(rows [][]float64, labels []int) float64 {
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

// NewConfusion evaluates the kernel ensemble on rows/labels.
func (mc *KernelMulticlass) NewConfusion(rows [][]float64, labels []int) *Confusion {
	cm := &Confusion{Classes: mc.Classes, Counts: make([][]int, mc.Classes)}
	for i := range cm.Counts {
		cm.Counts[i] = make([]int, mc.Classes)
	}
	for i, x := range rows {
		cm.Counts[labels[i]][mc.Predict(x)]++
	}
	return cm
}
