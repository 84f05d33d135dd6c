package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("requests_total", "worker", "3")
	c.Inc()
	c.Add(4)
	c.Add(-10) // ignored: counters are monotone
	if got := c.Value(); got != 5 {
		t.Fatalf("counter value = %d, want 5", got)
	}
	if again := r.Counter("requests_total", "worker", "3"); again != c {
		t.Fatalf("second lookup returned a different counter")
	}
	if other := r.Counter("requests_total", "worker", "4"); other == c {
		t.Fatalf("different labels returned the same counter")
	}

	g := r.Gauge("epoch")
	g.Set(7.5)
	if got := g.Value(); got != 7.5 {
		t.Fatalf("gauge value = %v, want 7.5", got)
	}
}

func TestLabelOrderCanonical(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "b", "2", "a", "1")
	b := r.Counter("x_total", "a", "1", "b", "2")
	if a != b {
		t.Fatalf("label order changed series identity")
	}
	var buf strings.Builder
	a.Inc()
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `x_total{a="1",b="2"} 1`) {
		t.Fatalf("labels not rendered in sorted order:\n%s", buf.String())
	}
}

func TestOddLabelsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("odd label list did not panic")
		}
	}()
	NewRegistry().Counter("x_total", "dangling")
}

func TestHistogramCountsAndQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", []float64{0.1, 0.2, 0.4})
	for _, v := range []float64{0.05, 0.15, 0.15, 0.3} {
		h.Observe(v)
	}
	if got := h.Count(); got != 4 {
		t.Fatalf("count = %d, want 4", got)
	}
	if got := h.sum; math.Abs(got-0.65) > 1e-12 {
		t.Fatalf("sum = %v, want 0.65", got)
	}
	// Median rank (2 of 4) lands at the top of the (0.1, 0.2] bucket.
	if got := h.Quantile(0.5); math.Abs(got-0.15) > 1e-12 {
		t.Fatalf("p50 = %v, want 0.15", got)
	}
	// The max clamps to the highest finite bound covering it.
	if got := h.Quantile(1); math.Abs(got-0.4) > 1e-12 {
		t.Fatalf("p100 = %v, want 0.4", got)
	}

	// Overflow observations clamp to the highest finite bound.
	h2 := r.Histogram("big_seconds", []float64{1, 2})
	h2.Observe(50)
	if got := h2.Quantile(0.5); got != 2 {
		t.Fatalf("overflow quantile = %v, want 2", got)
	}

	// Empty histogram has no quantiles.
	h3 := r.Histogram("empty_seconds", []float64{1})
	if got := h3.Quantile(0.5); !math.IsNaN(got) {
		t.Fatalf("empty quantile = %v, want NaN", got)
	}
}

func TestWritePrometheusDeterministic(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total", "w", "1").Add(2)
	r.Counter("b_total", "w", "0").Add(1)
	r.Counter("a_total").Inc()
	r.Gauge("g").Set(3)
	h := r.Histogram("h_seconds", []float64{0.5, 1}, "phase", "sum")
	h.Observe(0.25)
	h.Observe(2)

	var first strings.Builder
	if err := r.WritePrometheus(&first); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		var again strings.Builder
		if err := r.WritePrometheus(&again); err != nil {
			t.Fatal(err)
		}
		if again.String() != first.String() {
			t.Fatalf("render %d differs:\n%s\nvs\n%s", i, again.String(), first.String())
		}
	}
	want := strings.Join([]string{
		"# TYPE a_total counter",
		"a_total 1",
		"# TYPE b_total counter",
		`b_total{w="0"} 1`,
		`b_total{w="1"} 2`,
		"# TYPE g gauge",
		"g 3",
		"# TYPE h_seconds histogram",
		`h_seconds_bucket{phase="sum",le="+Inf"} 2`,
		`h_seconds_bucket{phase="sum",le="0.5"} 1`,
		`h_seconds_bucket{phase="sum",le="1"} 1`,
		`h_seconds_count{phase="sum"} 2`,
		`h_seconds_sum{phase="sum"} 2.25`,
		"",
	}, "\n")
	if first.String() != want {
		t.Fatalf("render:\n%s\nwant:\n%s", first.String(), want)
	}
}

func TestNilRegistryIsNoOp(t *testing.T) {
	var r *Registry
	c := r.Counter("x_total")
	c.Inc()
	c.Add(3)
	if c.Value() != 0 {
		t.Fatalf("nil counter has a value")
	}
	g := r.Gauge("g")
	g.Set(1)
	if g.Value() != 0 {
		t.Fatalf("nil gauge has a value")
	}
	h := r.Histogram("h", TimeBuckets)
	h.Observe(1)
	if h.Count() != 0 || !math.IsNaN(h.Quantile(0.5)) {
		t.Fatalf("nil histogram recorded something")
	}
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatalf("nil registry render: %v", err)
	}
}

// TestRegistryConcurrency exercises the registry under -race: concurrent
// create-on-first-use lookups, counter/gauge/histogram writes, and
// renders.
func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r.Counter("ops_total", "g", "shared").Inc()
				r.Gauge("level").Set(float64(i))
				r.Histogram("lat_seconds", TimeBuckets, "phase", "x").Observe(float64(i) / 1000)
				if i%50 == 0 {
					var sb strings.Builder
					if err := r.WritePrometheus(&sb); err != nil {
						t.Errorf("render: %v", err)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if got := r.Counter("ops_total", "g", "shared").Value(); got != 8*200 {
		t.Fatalf("ops_total = %d, want %d", got, 8*200)
	}
	if got := r.Histogram("lat_seconds", TimeBuckets, "phase", "x").Count(); got != 8*200 {
		t.Fatalf("histogram count = %d, want %d", got, 8*200)
	}
}

func TestTraceIDDeterministicAndDistinct(t *testing.T) {
	seen := map[uint64]int{}
	for round := 0; round < 1000; round++ {
		id := TraceID(round)
		if id == 0 {
			t.Fatalf("round %d minted zero trace ID", round)
		}
		if prev, dup := seen[id]; dup {
			t.Fatalf("rounds %d and %d share trace ID %#x", prev, round, id)
		}
		seen[id] = round
		if again := TraceID(round); again != id {
			t.Fatalf("round %d trace ID not deterministic", round)
		}
	}
}
