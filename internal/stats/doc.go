// Package stats provides the numeric substrate for the interactive-trimming
// reproduction: descriptive statistics, quantiles and percentile ranks, an
// order-preserving float radix sort, histograms, error metrics, vector
// distances and seeded random distributions.
//
// The Go ecosystem has no blessed statistics library comparable to MATLAB's
// toolboxes, so every primitive the paper's evaluation needs is implemented
// here from scratch on top of the standard library. All randomized helpers
// take an explicit *rand.Rand so experiments are reproducible round for
// round.
package stats
