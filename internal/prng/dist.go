package prng

import "math"

// This file is the access-distribution layer behind the synthetic workload
// families (internal/workload/families.go): a YCSB-style zipfian generator
// in the same exact threshold-table discipline as GeometricTable and
// PickTable. The sampler is bit-identical to a naive floating-point
// reference form (kept in dist_test.go and checked draw for draw), so a
// family's address stream is a pure function of its seed regardless of
// which form generates it.

// ZipfTable samples ranks in [0, n) with P(rank) proportional to
// 1/(rank+1)^theta — rank 0 is the most popular item. The naive reference
// draws u = Float64() and linearly scans the cumulative distribution for
// the first rank with u < cum[rank]; the table exploits that u takes
// values m/2^53 on the Float64 grid and that scaling by 2^53 is exact for
// both sides of the comparison, so the scan collapses to a binary search
// over precomputed integer grid counts. Sample consumes exactly one draw,
// like the reference.
//
// Workload generators map the returned rank to a storage line through a
// seed-independent bijection (see internal/workload), the same way YCSB's
// scrambled zipfian decorrelates popularity from key order.
type ZipfTable struct {
	// counts[r] is the number of grid values m with float64(m) < cum[r] *
	// 2^53, i.e. the exclusive upper bound of the grid run mapping to a
	// rank <= r. The last entry is forced to the full grid so every draw
	// maps to a rank (the reference's fallback-to-last-rank behaviour).
	counts []uint64
}

// zipfCum returns the cumulative distribution of the capped zipfian in
// the exact summation order both the table builder and the naive
// reference use: one left-to-right pass accumulating 1/(i+1)^theta, then
// one normalizing division per entry.
func zipfCum(n int, theta float64) []float64 {
	if n < 1 {
		panic("prng: ZipfTable needs at least one item")
	}
	if theta <= 0 {
		panic("prng: ZipfTable needs a positive exponent")
	}
	cum := make([]float64, n)
	total := 0.0
	for i := 0; i < n; i++ {
		total += math.Pow(float64(i+1), -theta)
		cum[i] = total
	}
	for i := range cum {
		cum[i] /= total
	}
	return cum
}

// NewZipfTable builds a sampler over n items with exponent theta (YCSB's
// default exponent is 0.99; larger is more skewed).
func NewZipfTable(n int, theta float64) *ZipfTable {
	cum := zipfCum(n, theta)
	t := &ZipfTable{counts: make([]uint64, n)}
	for r, c := range cum {
		// float64(m) < c*2^53 holds exactly for m < ceil(c*2^53): the
		// scaling multiplies the exponent only (never rounds for c <= 1),
		// every grid index is exactly representable, and for an integer
		// bound ceil is the identity. This is BoolThresh's argument,
		// applied per rank.
		b := math.Ceil(c * (1 << 53))
		if b > float64(geomGridMax) {
			b = float64(geomGridMax)
		}
		t.counts[r] = uint64(b)
	}
	// Absorb the float tail: the reference returns the last rank for any
	// draw beyond cum[n-1], so the last run covers the whole grid.
	t.counts[n-1] = geomGridMax
	return t
}

// N returns the item count.
func (t *ZipfTable) N() int { return len(t.counts) }

// Sample returns the rank for the next draw, consuming exactly one Uint64
// like the naive scan.
func (t *ZipfTable) Sample(s *Source) int {
	m := s.Uint64() >> 11
	// Binary search for the smallest rank with m < counts[rank]. Equal
	// neighbouring counts (float absorption on huge n) collapse to the
	// first rank of the run, exactly as the linear scan would.
	lo, hi := 0, len(t.counts)-1
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if m < t.counts[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}
