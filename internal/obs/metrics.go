package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// TimeBuckets are the fixed histogram bounds (seconds) shared by every
// latency histogram in the repo: 10 µs to 10 s in a 1–2.5–5 ladder, wide
// enough for a loopback fan-out and a WAN round trip alike.
var TimeBuckets = []float64{
	1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Registry holds a process's metric series: counters, gauges and
// fixed-bucket histograms, each addressed by (name, label pairs). Lookups
// create the series on first use; handles are safe for concurrent use
// (counters and gauges are atomics, histograms take a short mutex).
// Rendering is deterministic: families and series are emitted in sorted
// order, never map order.
//
// A nil *Registry is "metrics off": every lookup returns a nil handle and
// every handle method on nil is a no-op, so instrumented code needs no
// guards and provably cannot affect behavior when observability is
// disabled.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// seriesKey canonicalizes a (name, labels) address: labels are
// alternating key, value pairs, sorted by key, so the same series is
// found regardless of call-site label order.
func seriesKey(name string, labels []string) (key, rendered string) {
	if len(labels)%2 != 0 {
		panic("obs: label list must be alternating key, value pairs")
	}
	if len(labels) == 0 {
		return name, name
	}
	type pair struct{ k, v string }
	pairs := make([]pair, 0, len(labels)/2)
	for i := 0; i+1 < len(labels); i += 2 {
		pairs = append(pairs, pair{labels[i], labels[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteString(`="`)
		b.WriteString(p.v)
		b.WriteByte('"')
	}
	b.WriteByte('}')
	s := b.String()
	return s, s
}

// Counter is a monotonically increasing int64 series.
type Counter struct {
	name string
	key  string
	v    atomic.Int64
}

// Counter returns the named counter, creating it on first use. Labels are
// alternating key, value pairs.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	key, rendered := seriesKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[key]
	if c == nil {
		c = &Counter{name: name, key: rendered}
		r.counters[key] = c
	}
	return c
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (n < 0 is ignored: counters are monotone).
func (c *Counter) Add(n int64) {
	if c == nil || n < 0 {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 on a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a set-to-current-value float64 series.
type Gauge struct {
	name string
	key  string
	bits atomic.Uint64
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	if r == nil {
		return nil
	}
	key, rendered := seriesKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[key]
	if g == nil {
		g = &Gauge{name: name, key: rendered}
		r.gauges[key] = g
	}
	return g
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the stored value (0 on a nil gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket distribution: observation counts per upper
// bound plus an exact total count and sum. Buckets are set at creation
// and never change, so concurrent observers only contend on one mutex for
// a few adds.
type Histogram struct {
	name    string
	key     string
	bounds  []float64 // ascending upper bounds; the +Inf bucket is implicit
	mu      sync.Mutex
	buckets []uint64 // len(bounds)+1; last is the overflow (+Inf) bucket
	count   uint64
	sum     float64
}

// Histogram returns the named histogram, creating it with the given
// ascending bucket upper bounds on first use (subsequent lookups ignore
// the bounds argument).
func (r *Registry) Histogram(name string, bounds []float64, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	key, rendered := seriesKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[key]
	if h == nil {
		h = &Histogram{
			name:    name,
			key:     rendered,
			bounds:  append([]float64(nil), bounds...),
			buckets: make([]uint64, len(bounds)+1),
		}
		r.hists[key] = h
	}
	return h
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound ≥ v; len = overflow
	h.mu.Lock()
	h.buckets[i]++
	h.count++
	h.sum += v
	h.mu.Unlock()
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) by linear interpolation
// within the bucket the rank falls in — the resolution is the bucket
// ladder, which is what fixed buckets buy. NaN on an empty (or nil)
// histogram; ranks landing in the overflow bucket clamp to the highest
// finite bound.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return math.NaN()
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 || math.IsNaN(q) {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := q * float64(h.count)
	var cum float64
	for i, n := range h.buckets {
		prev := cum
		cum += float64(n)
		if cum < target || n == 0 {
			continue
		}
		if i == len(h.bounds) { // overflow bucket: no finite upper bound
			if len(h.bounds) == 0 {
				return math.NaN()
			}
			return h.bounds[len(h.bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = h.bounds[i-1]
		}
		hi := h.bounds[i]
		if n == 0 {
			return hi
		}
		return lo + (hi-lo)*((target-prev)/float64(n))
	}
	if len(h.bounds) == 0 {
		return math.NaN()
	}
	return h.bounds[len(h.bounds)-1]
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4): one # TYPE line per family, then the series —
// families and series in sorted order, so two renders of the same state
// are byte-identical (the maporder contract).
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	type series struct{ family, line string }
	var out []series
	fam := map[string]string{}

	r.mu.Lock()
	for _, c := range r.counters {
		fam[c.name] = "counter"
		out = append(out, series{c.name, fmt.Sprintf("%s %d", c.key, c.Value())})
	}
	for _, g := range r.gauges {
		fam[g.name] = "gauge"
		out = append(out, series{g.name, fmt.Sprintf("%s %s", g.key, formatFloat(g.Value()))})
	}
	for _, h := range r.hists {
		fam[h.name] = "histogram"
		for _, line := range h.renderLines() {
			out = append(out, series{h.name, line})
		}
	}
	r.mu.Unlock()

	sort.Slice(out, func(i, j int) bool {
		if out[i].family != out[j].family {
			return out[i].family < out[j].family
		}
		return out[i].line < out[j].line
	})
	lastFamily := ""
	for _, s := range out {
		if s.family != lastFamily {
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", s.family, fam[s.family]); err != nil {
				return err
			}
			lastFamily = s.family
		}
		if _, err := fmt.Fprintln(w, s.line); err != nil {
			return err
		}
	}
	return nil
}

// renderLines renders one histogram's exposition lines: cumulative
// *_bucket series per bound (plus +Inf), then *_sum and *_count.
func (h *Histogram) renderLines() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	lines := make([]string, 0, len(h.bounds)+3)
	var cum uint64
	for i, b := range h.bounds {
		cum += h.buckets[i]
		lines = append(lines, fmt.Sprintf("%s %d", h.bucketKey(formatFloat(b)), cum))
	}
	cum += h.buckets[len(h.bounds)]
	lines = append(lines, fmt.Sprintf("%s %d", h.bucketKey("+Inf"), cum))
	lines = append(lines,
		fmt.Sprintf("%s %s", h.suffixedKey("_sum"), formatFloat(h.sum)),
		fmt.Sprintf("%s %d", h.suffixedKey("_count"), h.count))
	return lines
}

// bucketKey builds name_bucket{labels...,le="bound"} from the series key.
func (h *Histogram) bucketKey(le string) string {
	if rest, ok := strings.CutPrefix(h.key, h.name+"{"); ok {
		return h.name + `_bucket{` + strings.TrimSuffix(rest, "}") + `,le="` + le + `"}`
	}
	return h.name + `_bucket{le="` + le + `"}`
}

// suffixedKey rewrites the series key as name_sum{...} / name_count{...}.
func (h *Histogram) suffixedKey(suffix string) string {
	if rest, ok := strings.CutPrefix(h.key, h.name+"{"); ok {
		return h.name + suffix + "{" + rest
	}
	return h.name + suffix
}

// formatFloat renders a float the way the exposition format expects:
// shortest round-trip representation, +Inf/-Inf/NaN spelled out.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
