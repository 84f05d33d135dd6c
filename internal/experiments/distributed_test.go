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
	// Identical arrivals → within the summary budget; shard-local arrivals
	// → within budget plus batch sampling noise.
	if sharded := byVariant["sharded-2"]; sharded.MaxRankDelta > 0.05 {
		t.Errorf("sharded max rank delta %v", sharded.MaxRankDelta)
	}
	if local.MaxRankDelta > 0.1 {
		t.Errorf("shard-local max rank delta %v", local.MaxRankDelta)
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if !strings.Contains(buf.String(), "egress B/round") {
		t.Error("Print output incomplete")
	}
}
