package stats

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"
)

// TestRadixSortKeys drives the high-word radix + tie-run cleanup against the
// stdlib on shapes that stress each path: random continuous data, keys that
// collide in the high word but differ below (the cleanup's comparison sort),
// heavy duplicates (the all-equal fast path), and signed zeros.
func TestRadixSortKeys(t *testing.T) {
	rng := NewRand(41)
	cases := map[string][]uint64{}
	rand32k := make([]uint64, 1<<15)
	for i := range rand32k {
		rand32k[i] = Float64Key(rng.NormFloat64())
	}
	cases["random"] = rand32k
	loTies := make([]uint64, 1<<14)
	for i := range loTies {
		// Shared high word, random low word: every key lands in one
		// cleanup run.
		loTies[i] = 0xbff0000000000000&^(0xffffffff) | uint64(rng.Int63())&0xffffffff
	}
	cases["low-word-ties"] = loTies
	dups := make([]uint64, 1<<14)
	for i := range dups {
		dups[i] = Float64Key(float64(rng.Intn(7)))
	}
	cases["duplicates"] = dups
	zeros := make([]uint64, 2048)
	for i := range zeros {
		switch i % 3 {
		case 0:
			zeros[i] = Float64Key(math.Copysign(0, -1))
		case 1:
			zeros[i] = Float64Key(0)
		default:
			zeros[i] = Float64Key(rng.NormFloat64())
		}
	}
	cases["signed-zeros"] = zeros
	cases["empty"] = nil
	for name, base := range cases {
		keys := append([]uint64(nil), base...)
		var h RadixHist
		for _, k := range keys {
			h.Add(k)
		}
		sorted, _ := RadixSortKeys(keys, make([]uint64, len(keys)), &h)
		want := append([]uint64(nil), base...)
		slices.Sort(want)
		if !slices.Equal(sorted, want) {
			t.Errorf("%s: radix order diverges from stdlib sort", name)
		}
	}
}

// TestSortFloat64sMatchesStdlib pins the contract every set-up sort relies
// on: SortFloat64s leaves exactly the order sort.Float64s leaves — element
// for element, −0.0 and +0.0 compared as the equal floats they are — with
// every NaN of the input in front, its bit pattern kept. Sizes straddle the
// radix threshold and reach a multi-chunk input; shapes cover continuous
// data, duplicate-heavy categories, infinities, signed zeros and values
// whose top 32 key bits tie (so the tie-run cleanup sorts on the low word).
func TestSortFloat64sMatchesStdlib(t *testing.T) {
	shapes := map[string]func(i int) float64{}
	rng := NewRand(43)
	shapes["normal"] = func(int) float64 { return rng.NormFloat64() }
	shapes["categories"] = func(int) float64 { return float64(rng.Intn(9)) }
	shapes["infinities"] = func(i int) float64 {
		switch i % 4 {
		case 0:
			return math.Inf(1)
		case 1:
			return math.Inf(-1)
		}
		return rng.NormFloat64() * 1e300
	}
	shapes["signed-zeros"] = func(i int) float64 {
		switch i % 3 {
		case 0:
			return math.Copysign(0, -1)
		case 1:
			return 0
		}
		return float64(rng.Intn(3) - 1)
	}
	shapes["low-word-ties"] = func(int) float64 {
		// One high key word, random low mantissa word: a single tie run.
		return math.Float64frombits(0x3ff0000000000000 | uint64(rng.Int63())&0xffffffff)
	}
	sizes := []int{0, 1, RadixMin - 1, RadixMin, RadixMin + 1, 1<<15 + 1}
	for name, gen := range shapes {
		for _, n := range sizes {
			for _, withNaN := range []bool{false, true} {
				xs := make([]float64, n)
				for i := range xs {
					xs[i] = gen(i)
					if withNaN && i%97 == 5 {
						// Quiet NaNs of both signs with distinct payloads.
						xs[i] = math.Float64frombits(0x7ff8000000000000 | uint64(i)<<1 | uint64(i%2)<<63)
					}
				}
				label := fmt.Sprintf("%s/n=%d/nan=%v", name, n, withNaN)
				checkSortedLikeStdlib(t, label, xs)
			}
		}
	}
}

func checkSortedLikeStdlib(t *testing.T, label string, xs []float64) {
	t.Helper()
	var nanBits []uint64
	for _, v := range xs {
		if math.IsNaN(v) {
			nanBits = append(nanBits, math.Float64bits(v))
		}
	}
	want := append([]float64(nil), xs...)
	sort.Float64s(want)
	got := append([]float64(nil), xs...)
	SortFloat64s(got)
	k := len(nanBits)
	var gotNaN []uint64
	for _, v := range got[:k] {
		if !math.IsNaN(v) {
			t.Fatalf("%s: %d NaNs in the input, but %v sorted into the first %d places", label, k, v, k)
		}
		gotNaN = append(gotNaN, math.Float64bits(v))
	}
	slices.Sort(nanBits)
	slices.Sort(gotNaN)
	if !slices.Equal(nanBits, gotNaN) {
		t.Fatalf("%s: NaN bit patterns changed: %x -> %x", label, nanBits, gotNaN)
	}
	for i := k; i < len(xs); i++ {
		if got[i] != want[i] {
			t.Fatalf("%s: element %d is %v, sort.Float64s has %v", label, i, got[i], want[i])
		}
	}
}

// BenchmarkSortFloat64s measures the set-up sort at the pool sizes the
// benchmark games configure (the 250k LDP pool, the 1M scalar reference)
// next to the comparison sort it replaces.
func BenchmarkSortFloat64s(b *testing.B) {
	for _, n := range []int{250_000, 1_000_000} {
		rng := NewRand(47)
		base := make([]float64, n)
		for i := range base {
			base[i] = rng.NormFloat64()
		}
		xs := make([]float64, n)
		for _, impl := range []struct {
			name string
			sort func([]float64)
		}{{"radix", SortFloat64s}, {"stdlib", sort.Float64s}} {
			b.Run(fmt.Sprintf("%s/n=%d", impl.name, n), func(b *testing.B) {
				b.SetBytes(int64(8 * n))
				for i := 0; i < b.N; i++ {
					copy(xs, base)
					impl.sort(xs)
				}
			})
		}
	}
}
