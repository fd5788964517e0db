package prng

import "math"

// This file is the access-distribution layer behind the synthetic workload
// families (internal/workload/families.go): YCSB-style zipfian, hotspot and
// latest generators in the same exact threshold-table discipline as
// GeometricTable and PickTable. Every sampler here is bit-identical to a
// naive floating-point reference form (kept in dist_test.go and checked
// draw for draw), so a family's address stream is a pure function of its
// seed regardless of which form generates it.

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

// HotspotTable samples keys in [0, n): a hot prefix of hotN keys receives
// hotFrac of the draws, the cold remainder the rest, both uniformly —
// YCSB's hotspot distribution. The table form precomputes the Bool
// threshold (exact, see BoolThresh) and the power-of-two masks for the
// two uniform draws, making Sample bit-identical to the naive
//
//	if s.Bool(hotFrac) { return s.Intn(hotN) }
//	return hotN + s.Intn(n-hotN)
//
// while consuming the same two draws.
type HotspotTable struct {
	hotT         float64
	hotN, coldN  uint64
	hotMask      uint64 // hotN-1 when hotN is a power of two, else 0
	coldMask     uint64
	totalN       int
	hotFraction  float64
	hotItemCount int
}

// NewHotspotTable builds a hotspot sampler: n items, the first hotN of
// which receive hotFrac of all draws. hotN must be in [1, n) and hotFrac
// in [0, 1].
func NewHotspotTable(n, hotN int, hotFrac float64) *HotspotTable {
	if n < 2 || hotN < 1 || hotN >= n {
		panic("prng: HotspotTable needs 1 <= hotN < n")
	}
	if hotFrac < 0 || hotFrac > 1 {
		panic("prng: HotspotTable needs hotFrac in [0, 1]")
	}
	t := &HotspotTable{
		hotT:   BoolThresh(hotFrac),
		hotN:   uint64(hotN),
		coldN:  uint64(n - hotN),
		totalN: n, hotFraction: hotFrac, hotItemCount: hotN,
	}
	t.hotMask = powerOfTwoMask(t.hotN)
	t.coldMask = powerOfTwoMask(t.coldN)
	return t
}

// powerOfTwoMask returns n-1 when n is a power of two (making the uniform
// draw a single mask, bit-identical to the modulo), else 0.
func powerOfTwoMask(n uint64) uint64 {
	if n > 0 && n&(n-1) == 0 {
		return n - 1
	}
	return 0
}

// N returns the item count.
func (t *HotspotTable) N() int { return t.totalN }

// HotN returns the hot-set size.
func (t *HotspotTable) HotN() int { return t.hotItemCount }

// HotFrac returns the fraction of draws that land in the hot set.
func (t *HotspotTable) HotFrac() float64 { return t.hotFraction }

// Sample returns the key for the next draws (one Bool draw plus one
// uniform draw, exactly like the naive form).
func (t *HotspotTable) Sample(s *Source) int {
	if s.BoolT(t.hotT) {
		return int(maskedUniform(s, t.hotN, t.hotMask))
	}
	return int(t.hotN + maskedUniform(s, t.coldN, t.coldMask))
}

// maskedUniform draws a uniform value in [0, n), using the mask fast path
// for power-of-two n; both branches are bit-identical to Uint64n(n).
func maskedUniform(s *Source, n, mask uint64) uint64 {
	if mask != 0 {
		return s.Uint64() & mask
	}
	return s.Uint64n(n)
}

// LatestTable samples recency offsets: Sample(s, max) returns a position
// in [0, max] skewed toward max — YCSB's "latest" distribution, where the
// most recently inserted item is the most popular. The skew is a zipfian
// over a fixed window of the most recent positions: offset rank 0 (the
// newest) is the most popular, and the window wraps over [0, max] while
// fewer than window positions exist. Bit-identical to the naive form
//
//	max - zipfNaive(s) % (max+1)
//
// consuming exactly one draw.
type LatestTable struct {
	z *ZipfTable
}

// NewLatestTable builds a latest sampler whose recency window holds
// window positions with exponent theta.
func NewLatestTable(window int, theta float64) *LatestTable {
	return &LatestTable{z: NewZipfTable(window, theta)}
}

// Window returns the recency-window size.
func (t *LatestTable) Window() int { return t.z.N() }

// Sample returns a position in [0, max] skewed toward max.
func (t *LatestTable) Sample(s *Source, max uint64) uint64 {
	d := uint64(t.z.Sample(s)) % (max + 1)
	return max - d
}
