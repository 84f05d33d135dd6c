package summary

import (
	"math"
	"testing"

	"math/rand"
)

// State→FromState is a bit-faithful fork: every observable of the restored
// stream matches the original, and stays matching after both absorb the
// same continuation — the property checkpointed coordinator resume rests
// on.
func TestStreamStateRoundTripContinues(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	st, err := New(0.01, 10000)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5000; i++ {
		st.Push(rng.NormFloat64())
	}
	// Leave a partial buffer in the state.
	for i := 0; i < 37; i++ {
		st.Push(rng.NormFloat64())
	}

	restored, err := FromState(st.State())
	if err != nil {
		t.Fatal(err)
	}
	same := func(stage string) {
		t.Helper()
		if st.Count() != restored.Count() || st.Sum() != restored.Sum() {
			t.Fatalf("%s: count %d/%d sum %v/%v", stage, st.Count(), restored.Count(), st.Sum(), restored.Sum())
		}
		if st.Min() != restored.Min() || st.Max() != restored.Max() {
			t.Fatalf("%s: min/max diverged", stage)
		}
		for q := 0.01; q < 1; q += 0.07 {
			if st.Query(q) != restored.Query(q) {
				t.Fatalf("%s: Query(%v) %v vs %v", stage, q, st.Query(q), restored.Query(q))
			}
		}
		a, b := st.Snapshot().Entries(), restored.Snapshot().Entries()
		if len(a) != len(b) {
			t.Fatalf("%s: snapshot sizes %d vs %d", stage, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: snapshot entry %d diverged", stage, i)
			}
		}
	}
	same("after restore")

	// Identical continuations stay identical (crossing flushes and carries).
	cont := rand.New(rand.NewSource(4))
	for i := 0; i < 3000; i++ {
		v := cont.NormFloat64()
		st.Push(v)
		restored.Push(v)
	}
	other, err := New(0.02, 100)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		other.Push(cont.NormFloat64())
	}
	st.AbsorbCounted(other.Snapshot(), other.Count(), other.Sum())
	restored.AbsorbCounted(other.Snapshot(), other.Count(), other.Sum())
	same("after continuation")
}

func TestStreamStateEmptyAndUnweighted(t *testing.T) {
	st, err := New(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	s := st.State()
	if len(s.BufV) != 0 || len(s.Levels) != 0 {
		t.Fatal("empty stream state holds observations")
	}
	if !math.IsInf(s.Min, 1) || !math.IsInf(s.Max, -1) {
		t.Fatal("empty extrema not infinite")
	}
	restored, err := FromState(s)
	if err != nil {
		t.Fatal(err)
	}
	restored.Push(1)
	if restored.Count() != 1 || restored.Query(0.5) != 1 {
		t.Fatal("restored empty stream broken")
	}
}

// State() is a deep copy: mutating the live stream afterwards must not leak
// into a state held for serialization.
func TestStreamStateIsolation(t *testing.T) {
	st, err := New(0.05, 100)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		st.Push(float64(i))
	}
	s := st.State()
	buf := append([]float64(nil), s.BufV...)
	for i := 0; i < 500; i++ {
		st.Push(float64(i))
	}
	for i := range buf {
		if s.BufV[i] != buf[i] {
			t.Fatal("state buffer mutated by later pushes")
		}
	}
}

func TestStreamStateValidation(t *testing.T) {
	good := func() *StreamState {
		st, err := New(0.05, 100)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			st.Push(float64(i))
		}
		return st.State()
	}
	cases := map[string]func(*StreamState){
		"nil":            nil,
		"bad epsilon":    func(s *StreamState) { s.Epsilon = 1.5 },
		"NaN epsilon":    func(s *StreamState) { s.Epsilon = math.NaN() },
		"tiny epsilon":   func(s *StreamState) { s.Epsilon = minEpsilon / 2 },
		"bad block size": func(s *StreamState) { s.BlockSize = 0 },
		"small block":    func(s *StreamState) { s.BlockSize = 39 }, // ⌈2/0.05⌉ = 40
		"overfull buf":   func(s *StreamState) { s.BufV = make([]float64, s.BlockSize) },
		"negative count": func(s *StreamState) { s.Count = -1 },
	}
	for name, mutate := range cases {
		var s *StreamState
		if mutate != nil {
			s = good()
			mutate(s)
		}
		if _, err := FromState(s); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// Regression: FromState allocates its push buffer at the state's block
// size, and a checkpoint carries that size as an unchecked u32. A state
// claiming 2^31−1 asked for a 16 GiB buffer and killed the resuming
// process with a fatal out-of-memory error before anything could refuse
// the snapshot. A block size New's sizing never yields for the state's ε
// is refused instead.
func TestFromStateRefusesBlockSizeNewCannotBuild(t *testing.T) {
	st, err := New(0.01, 1000)
	if err != nil {
		t.Fatal(err)
	}
	st.Push(1)
	for _, bs := range []int{1<<31 - 1, 1 << 40} {
		s := st.State()
		s.BlockSize = bs
		if _, err := FromState(s); err == nil {
			t.Errorf("block size %d accepted for epsilon %v", bs, s.Epsilon)
		}
		if _, err := VectorFromState([]*StreamState{st.State(), s}); err == nil {
			t.Errorf("vector coordinate with block size %d accepted", bs)
		}
	}
}

// Every state New can build restores: the FromState bound admits New's
// block size for every ε it accepts and every hint, from one pair of
// blocks to the largest int.
func TestFromStateAcceptsEveryNewSize(t *testing.T) {
	for _, eps := range []float64{minEpsilon, 1e-4, DefaultEpsilon, 0.05, 0.5, 0.999} {
		for _, hint := range []int{-1, 1, 1000, 1 << 20, 1 << 40, 1 << 62, math.MaxInt} {
			if eps < 1e-4 && hint > 1<<20 {
				continue // hundreds of MB of push buffer
			}
			st, err := New(eps, hint)
			if err != nil {
				t.Fatal(err)
			}
			st.Push(1)
			if _, err := FromState(st.State()); err != nil {
				t.Errorf("New(%v, %d): block size %d: %v", eps, hint, st.BlockSize(), err)
			}
		}
	}
}
