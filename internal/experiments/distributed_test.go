package experiments

import (
	"bytes"
	"strings"
	"testing"
)

func TestDistributed(t *testing.T) {
	sc := Quick
	sc.Rounds = 3
	sc.Batch = 20 // ×100 inside: 2000 per round
	res, err := Distributed(sc, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	byVariant := map[string]DistributedRow{}
	for _, row := range res.Rows {
		byVariant[row.Variant] = row
	}
	for _, want := range []string{"unsharded", "sharded-2", "local-2"} {
		if _, ok := byVariant[want]; !ok {
			t.Fatalf("variant %q missing from %v", want, res.Rows)
		}
	}
	// In-process variants ship nothing.
	if byVariant["unsharded"].EgressPerRound != 0 || byVariant["sharded-2"].EgressPerRound != 0 {
		t.Error("in-process variants report nonzero egress")
	}
	// Seed directives are O(workers), far below one raw slice of the batch.
	local := byVariant["local-2"]
	if local.EgressPerRound > 2*1024 {
		t.Errorf("shard-local egress %v B/round is not O(workers)", local.EgressPerRound)
	}
	if local.EgressConfig <= 0 {
		t.Error("shard-local variant shipped no configure payload")
	}
	// Both sharded shapes draw their own arrivals from the same master
	// seed, so they trail the unsharded run by the summary budget plus
	// batch sampling noise.
	sharded := byVariant["sharded-2"]
	if sharded.MaxRankDelta > 0.05 {
		t.Errorf("sharded max rank delta %v", sharded.MaxRankDelta)
	}
	if local.MaxRankDelta > 0.1 {
		t.Errorf("shard-local max rank delta %v", local.MaxRankDelta)
	}
	// And they play the same game through the same kernel: every
	// board-derived column agrees exactly.
	for _, c := range []struct {
		name           string
		sharded, local float64
	}{
		{"poison retention", sharded.PoisonRetention, local.PoisonRetention},
		{"honest loss", sharded.HonestLoss, local.HonestLoss},
		{"kept mean", sharded.KeptMean, local.KeptMean},
		{"kept p99", sharded.KeptP99, local.KeptP99},
		{"max rank delta", sharded.MaxRankDelta, local.MaxRankDelta},
	} {
		if c.sharded != c.local {
			t.Errorf("%s: sharded-2 %v, local-2 %v", c.name, c.sharded, c.local)
		}
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if !strings.Contains(buf.String(), "egress B/round") {
		t.Error("Print output incomplete")
	}
}
