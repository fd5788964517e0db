// Package statstack implements StatStack (Eklöv & Hagersten, ISPASS 2010):
// statistical cache modeling that predicts the miss rate of a fully
// associative LRU cache from a reuse-distance distribution, which is cheap
// to collect, instead of a stack-distance distribution, which is not.
//
// Reuse distance of an access = number of accesses since the previous access
// to the same cache line. Stack distance = number of *distinct* lines
// accessed in that window; an access hits in an LRU cache of C lines iff its
// stack distance is below C. StatStack's key identity: among the r
// intervening accesses of a reuse window, exactly those whose own forward
// reuse distance reaches past the end of the window are the last occurrence
// of their line inside the window, hence
//
//	E[SD(r)] = Σ_{j=1}^{r-1} P(RD > j),
//
// computed over the same reuse-distance distribution. The multithreaded
// extension (Åhlman 2016) used by RPPM applies the identical machinery to
// two distributions per thread: a private one (per-thread access counter,
// with coherence write-invalidations recorded as infinite distances) for the
// private L1/L2, and a global one (access counter shared by all threads) for
// the shared LLC, capturing both negative interference (evictions by other
// threads) and positive interference (shared lines brought in by others).
//
// Cold misses appear as infinite reuse distances on a line's first access,
// so they flow through the same path.
package statstack

import (
	"math"
	"sort"
	"unsafe"

	"rppm/internal/stats"
)

// Model predicts LRU miss rates from one reuse-distance histogram.
// It precomputes a piecewise-linear approximation of the expected
// stack-distance function SD(r).
type Model struct {
	hist *stats.Histogram

	// rs are reuse-distance sample points (ascending); sd[i] = E[SD(rs[i])].
	rs []float64
	sd []float64
}

// New builds a model from a reuse-distance histogram. The histogram is not
// copied; it must not be modified afterwards.
func New(h *stats.Histogram) *Model {
	m := &Model{hist: h}
	if h == nil || h.Count() == 0 {
		return m
	}
	// Sample points: dense at small distances, geometric beyond, out to the
	// largest finite distance observed.
	maxR := float64(h.Max()) + 1
	rs := make([]float64, 0, samplePoints(maxR))
	for r := 1.0; r <= denseMax; r++ {
		rs = append(rs, r)
	}
	for r := geoStart; r < maxR; r *= geoRatio {
		rs = append(rs, math.Floor(r))
	}
	rs = append(rs, maxR)

	// SD(r) = ∫_{1}^{r-1} P(RD > j) dj, accumulated by trapezoid between
	// sample points. ccdf(j) = FracAbove(j) is monotone non-increasing.
	sd := make([]float64, len(rs))
	prevR := 0.0
	prevC := 1.0 // P(RD > 0) = 1 for any access stream
	acc := 0.0
	for i, r := range rs {
		c := h.FracAbove(int64(r) - 1) // P(RD > r-1) = P(RD >= r)
		acc += (r - prevR) * (c + prevC) / 2
		sd[i] = acc
		prevR, prevC = r, c
	}
	m.rs = rs
	m.sd = sd
	return m
}

// New's reuse-distance sample grid: every distance up to denseMax, then
// geometric steps of geoRatio from geoStart.
const (
	denseMax = 64
	geoStart = 72.0
	geoRatio = 1.09
)

// samplePoints returns the number of reuse-distance sample points New
// takes for a histogram whose largest finite distance is maxR-1.
func samplePoints(maxR float64) int {
	n := denseMax + 1 // the dense points and the closing maxR
	for r := geoStart; r < maxR; r *= geoRatio {
		n++
	}
	return n
}

// ModelSizeBytes returns the resident size of the model New builds from h,
// without building it, for memory-budget accounting of a lazily built
// model.
func ModelSizeBytes(h *stats.Histogram) int64 {
	n := int64(unsafe.Sizeof(Model{}))
	if h == nil || h.Count() == 0 {
		return n
	}
	return n + 2*8*int64(samplePoints(float64(h.Max())+1))
}

// SizeBytes returns the resident size of the model: the struct and its
// sample arrays (the histogram is owned by the caller).
func (m *Model) SizeBytes() int64 {
	return int64(unsafe.Sizeof(*m)) + 8*int64(cap(m.rs)+cap(m.sd))
}

// StackDistance returns the expected stack distance for a reuse distance r.
// It is monotone non-decreasing in r and never exceeds r.
func (m *Model) StackDistance(r float64) float64 {
	if len(m.rs) == 0 || r <= 1 {
		return math.Min(math.Max(r, 0), 1)
	}
	i := sort.SearchFloat64s(m.rs, r)
	if i >= len(m.rs) {
		return m.sd[len(m.sd)-1]
	}
	if m.rs[i] == r || i == 0 {
		return math.Min(m.sd[i], r)
	}
	// Linear interpolation between sample points.
	r0, r1 := m.rs[i-1], m.rs[i]
	s0, s1 := m.sd[i-1], m.sd[i]
	v := s0 + (s1-s0)*(r-r0)/(r1-r0)
	return math.Min(v, r)
}

// CriticalDistance returns the smallest reuse distance whose expected stack
// distance reaches lines, or +Inf if no finite distance does: accesses with
// a reuse distance at or beyond it are predicted to miss a cache of that
// many lines. Exposed for the MLP model, which must classify individual
// profiled accesses as hits or misses.
func (m *Model) CriticalDistance(lines int) float64 {
	return m.criticalReuseDistance(lines)
}

// criticalReuseDistance returns the smallest reuse distance whose expected
// stack distance reaches lines, or +Inf if no finite distance does.
func (m *Model) criticalReuseDistance(lines int) float64 {
	if len(m.rs) == 0 {
		return math.Inf(1)
	}
	c := float64(lines)
	if m.sd[len(m.sd)-1] < c {
		return math.Inf(1)
	}
	// Binary search over sample points, then interpolate within the segment.
	i := sort.Search(len(m.sd), func(k int) bool { return m.sd[k] >= c })
	if i == 0 {
		return m.rs[0]
	}
	r0, r1 := m.rs[i-1], m.rs[i]
	s0, s1 := m.sd[i-1], m.sd[i]
	if s1 == s0 {
		return r1
	}
	return r0 + (r1-r0)*(c-s0)/(s1-s0)
}

// MissRate predicts the miss rate of a fully associative LRU cache holding
// the given number of lines: the fraction of accesses whose reuse distance
// maps to a stack distance of at least lines, plus all infinite-distance
// accesses (cold misses and coherence invalidations).
func (m *Model) MissRate(lines int) float64 {
	if m.hist == nil || m.hist.Count() == 0 {
		return 0
	}
	if lines <= 0 {
		return 1
	}
	rStar := m.criticalReuseDistance(lines)
	if math.IsInf(rStar, 1) {
		// Only cold/coherence misses.
		return float64(m.hist.InfiniteCount()) / float64(m.hist.Count())
	}
	// Misses are accesses with RD >= rStar (FracAbove counts Infinite).
	return m.hist.FracAbove(int64(rStar) - 1)
}

// ColdMissRate returns the fraction of accesses that are cold or coherence
// misses (infinite reuse distance) — a lower bound on any MissRate.
func (m *Model) ColdMissRate() float64 {
	if m.hist == nil || m.hist.Count() == 0 {
		return 0
	}
	return float64(m.hist.InfiniteCount()) / float64(m.hist.Count())
}
