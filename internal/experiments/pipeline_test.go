package experiments

import (
	"bytes"
	"testing"
	"time"
)

// raceDetector is set in -race builds (race_test.go), whose instrumentation
// overhead distorts wall-clock ratios; timing gates skip under it.
var raceDetector bool

// The pipelining study at a tiny scale: the boards must verify identical
// (Pipelining errors otherwise), every cell must report positive timings,
// and under a latency-dominated 5 ms delay the pipelined schedule must win
// (checked outside the race detector; the plain test run keeps the gate).
func TestPipeliningStudy(t *testing.T) {
	sc := Quick
	sc.Rounds = 6
	res, err := Pipelining(sc, []time.Duration{5 * time.Millisecond}, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	row := res.Rows[0]
	if row.PlainMillis <= 0 || row.PipedMillis <= 0 {
		t.Fatalf("non-positive timings: %+v", row)
	}
	// Sleep floors: 2 fan-outs/round vs ~1; demand a clear win with slack.
	if row.Speedup < 1.3 && !raceDetector {
		t.Errorf("speedup %.2f under 5 ms injected latency, want ≥ 1.3", row.Speedup)
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if buf.Len() == 0 {
		t.Error("empty study printout")
	}
}
