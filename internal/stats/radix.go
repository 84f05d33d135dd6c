package stats

import (
	"math"
	"slices"
	"sort"
)

// The LSD radix sort over order-preserving float keys (DESIGN.md §12). It is
// the one radix implementation in the repository: summary's fused batch
// ingest feeds it keys and histograms built in its own conversion scan, and
// SortFloat64s wraps it for the game's one-time set-up sorts (the scalar
// reference, the LDP pools, the row game's reference distances and start
// center).

// RadixMin is the input size below which sorting falls back to the stdlib:
// under it, clearing the histograms and the key scratch costs more than the
// comparison sort saves.
const RadixMin = 512

const (
	radixBits    = 8
	radixBuckets = 1 << radixBits
	radixMask    = radixBuckets - 1
	// Only the high word is radix-sorted (4 passes); ties below — short,
	// rare runs for continuous data, whose neighbors usually differ within
	// the top 20 mantissa bits — are resolved by a comparison sort per run.
	// (3 passes over the top 24 bits measured slower: the longer cleanup
	// runs cost more than the saved scatter pass.)
	radixPasses = 4
	radixShift  = 32
)

// RadixHist holds the per-pass digit histograms of RadixSortKeys: one
// 256-bucket count per byte of the key's high word.
type RadixHist [radixPasses][radixBuckets]int32

// Add counts key k into every pass's histogram. Callers build the histograms
// in the same scan that converts values to keys, so sorting never re-reads
// the input to count.
func (h *RadixHist) Add(k uint64) {
	h[0][k>>32&radixMask]++
	h[1][k>>40&radixMask]++
	h[2][k>>48&radixMask]++
	h[3][k>>56]++
}

// Float64Key maps a float64 onto a uint64 whose unsigned order matches float
// order: the sign bit is flipped for non-negatives, all bits for negatives.
// NaNs must be filtered before keying; −0.0 keys below +0.0 (the two compare
// equal as floats).
func Float64Key(v float64) uint64 {
	k := math.Float64bits(v)
	if k&(1<<63) != 0 {
		return ^k
	}
	return k | 1<<63
}

// KeyFloat64 inverts Float64Key.
func KeyFloat64(k uint64) float64 {
	if k&(1<<63) != 0 {
		return math.Float64frombits(k &^ (1 << 63))
	}
	return math.Float64frombits(^k)
}

// RadixSortKeys sorts keys ascending, using tmp (same length) as the scatter
// buffer and h as the histograms of keys (Add), which it consumes. It is an
// LSD radix sort over the high word — passes whose keys all share one digit
// are skipped, so narrow-range data pays only for the digits that vary —
// followed by a cleanup walk that comparison-sorts any run of equal high
// words on the full key. Continuous data almost never ties in the top 20
// mantissa bits, so cleanup is a read-only scan; duplicate-heavy data ties
// with fully equal keys, which the all-equal check skips. It returns the
// sorted buffer and the spare (either may be keys or tmp; callers that pool
// the two re-home both).
func RadixSortKeys(keys, tmp []uint64, h *RadixHist) (sorted, spare []uint64) {
	n := int32(len(keys))
	if n == 0 {
		return keys, tmp
	}
	src, dst := keys, tmp
	for p, shift := 0, uint(radixShift); p < radixPasses; p, shift = p+1, shift+radixBits {
		c := &h[p]
		if c[src[0]>>shift&radixMask] == n {
			continue // every key shares this digit
		}
		sum := int32(0)
		for b := range c {
			c[b], sum = sum, sum+c[b]
		}
		for _, k := range src {
			b := k >> shift & radixMask
			dst[c[b]] = k
			c[b]++
		}
		src, dst = dst, src
	}
	for i, nn := 0, len(src); i < nn; {
		hi := src[i] >> radixShift
		j := i + 1
		for j < nn && src[j]>>radixShift == hi {
			j++
		}
		if j > i+1 && !keysAllEqual(src[i:j]) {
			sortRun(src[i:j])
		}
		i = j
	}
	return src, dst
}

// sortRun orders one tie run on the full key: insertion sort for the short
// runs continuous data produces, the stdlib for anything longer.
func sortRun(ks []uint64) {
	if len(ks) > 24 {
		slices.Sort(ks)
		return
	}
	for i := 1; i < len(ks); i++ {
		k := ks[i]
		j := i - 1
		for j >= 0 && ks[j] > k {
			ks[j+1] = ks[j]
			j--
		}
		ks[j+1] = k
	}
}

func keysAllEqual(ks []uint64) bool {
	for _, k := range ks[1:] {
		if k != ks[0] {
			return false
		}
	}
	return true
}

// SortFloat64s sorts xs ascending in the order sort.Float64s gives: NaNs
// first, bit patterns kept, then the numbers (−0.0 and +0.0 compare equal,
// so their relative order is unspecified in both). From RadixMin values up
// it radix-sorts order-preserving keys — O(n) where the comparison sort is
// O(n log n), for 16 bytes of scratch per value; below that it is
// sort.Float64s.
func SortFloat64s(xs []float64) {
	if len(xs) < RadixMin {
		sort.Float64s(xs)
		return
	}
	scratch := make([]uint64, 2*len(xs))
	keys, tmp := scratch[:len(xs)], scratch[len(xs):]
	var h RadixHist
	nan, w := 0, 0
	for _, v := range xs {
		if v != v {
			// Compact NaNs to the front; nan never passes the index being
			// read, so no unread value is overwritten.
			xs[nan] = v
			nan++
			continue
		}
		k := Float64Key(v)
		keys[w] = k
		w++
		h.Add(k)
	}
	sorted, _ := RadixSortKeys(keys[:w], tmp[:w], &h)
	out := xs[nan:]
	for i, k := range sorted {
		out[i] = KeyFloat64(k)
	}
}
