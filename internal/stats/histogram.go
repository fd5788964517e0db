// Package stats provides the compact statistical containers shared by the
// profiler and the analytical models: log-bucketed histograms for
// reuse-distance and dependence-distance distributions, and small summary
// helpers.
//
// Reuse distances span ten orders of magnitude, so exact per-value counters
// are impractical. Following StatStack practice we keep exact counts for
// small distances and logarithmic buckets beyond a linear cutoff; within a
// log bucket the distribution is treated as uniform when interpolating.
package stats

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"sync/atomic"
	"unsafe"
)

// linearCutoff is the largest value tracked with an exact counter. Values
// above it fall into log2-spaced buckets (two sub-buckets per octave).
const linearCutoff = 4096

// Infinite is the sentinel distance used for cold misses and coherence
// invalidations: a reuse distance larger than any cache will ever hold.
const Infinite = math.MaxInt64

// Histogram is a distribution over non-negative int64 values with exact
// resolution up to linearCutoff and logarithmic resolution beyond. It also
// tracks a separate count of Infinite samples.
type Histogram struct {
	linear   []uint64 // exact counts for values in [0, linearCutoff)
	log      []uint64 // log-bucket counts for values >= linearCutoff
	infinite uint64   // samples recorded as Infinite
	count    uint64   // total samples, including infinite
	sum      float64  // sum of finite samples
	max      int64    // largest finite sample

	// suffix caches suffix[i] = sum of linear[i:] for CountAbove, which the
	// StatStack model evaluates at hundreds of sample points per model
	// build; without the cache each evaluation rescans the linear array.
	// Lazily built, dropped on every mutation. Substituting the integer
	// suffix sum for the element-by-element float accumulation is
	// bit-identical: every count and every partial sum is an integer far
	// below 2^53, so no float addition in the replaced loop ever rounds.
	// Atomic because finished profiles are read by concurrent prediction
	// workers: racing builders store identical contents, so either wins.
	suffix atomic.Pointer[[]uint64]

	// linearAlloc, when set, supplies the lazily-allocated linear array.
	// The profiler creates histograms by the thousands (three per epoch)
	// and sets a slab allocator so their 32 KB linear arrays come out of
	// shared chunks instead of individual heap allocations.
	linearAlloc func(n int) []uint64
}

// SetLinearAllocator installs f as the source of the lazily-allocated
// exact-count array. f must return a zeroed slice of exactly the requested
// length. Single-writer histograms only; install before the first Add.
func (h *Histogram) SetLinearAllocator(f func(n int) []uint64) { h.linearAlloc = f }

// ensureLinear allocates the exact-count array on first use.
func (h *Histogram) ensureLinear() {
	if h.linearAlloc != nil {
		h.linear = h.linearAlloc(linearCutoff)
		return
	}
	h.linear = make([]uint64, linearCutoff)
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{}
}

// logSubBuckets is the number of sub-buckets logBucket spreads each value
// octave over; maxLogBuckets bounds its index space (63 octaves for
// positive int64 values), sizing the one-shot log-array growth in AddN.
const (
	logSubBuckets = 2
	maxLogBuckets = logSubBuckets * 64
)

// logBucket maps a value >= linearCutoff to a bucket index. Each octave is
// split in two for better resolution: bucket = 2*floor(log2 v) + half.
func logBucket(v int64) int {
	lg := 63 - bits.LeadingZeros64(uint64(v))
	half := 0
	if uint64(v)>>(uint(lg)-1)&1 == 1 { // second half of the octave
		half = 1
	}
	return 2*lg + half
}

// logBucketBounds returns the inclusive lower and exclusive upper value
// bounds of a log bucket index.
func logBucketBounds(b int) (lo, hi int64) {
	lg := b / 2
	half := b % 2
	lo = int64(1) << uint(lg)
	mid := lo + lo/2
	hi = int64(1) << uint(lg+1)
	if half == 0 {
		return lo, mid
	}
	return mid, hi
}

// Add records one occurrence of value v. Negative values are clamped to 0.
func (h *Histogram) Add(v int64) {
	// Fast path for the profiler's per-access recording: small finite
	// distance into an already-allocated linear array. State updates match
	// AddN(v, 1) exactly (float64(v)*float64(1) == float64(v)).
	if uint64(v) < linearCutoff && h.linear != nil {
		h.count++
		h.sum += float64(v)
		if v > h.max {
			h.max = v
		}
		h.linear[v]++
		h.suffix.Store(nil)
		return
	}
	h.AddN(v, 1)
}

// AddN records n occurrences of value v.
func (h *Histogram) AddN(v int64, n uint64) {
	if n == 0 {
		return
	}
	h.count += n
	if v == Infinite {
		h.infinite += n
		return
	}
	if v < 0 {
		v = 0
	}
	h.sum += float64(v) * float64(n)
	if v > h.max {
		h.max = v
	}
	if v < linearCutoff {
		if h.linear == nil {
			h.ensureLinear()
		}
		h.linear[v] += n
		h.suffix.Store(nil)
		return
	}
	b := logBucket(v)
	if b >= len(h.log) {
		// One growth for the histogram's lifetime: the bucket index space
		// is bounded by maxLogBuckets, so allocate it all at once instead
		// of re-growing on each new maximum. (The max with b+1 is a guard
		// in case logBucket ever gains resolution.)
		size := maxLogBuckets
		if b >= size {
			size = b + 1
		}
		var grown []uint64
		if h.linearAlloc != nil {
			grown = h.linearAlloc(size)
		} else {
			grown = make([]uint64, size)
		}
		copy(grown, h.log)
		h.log = grown
	}
	h.log[b] += n
}

// Merge adds all samples of other into h.
func (h *Histogram) Merge(other *Histogram) {
	if other == nil {
		return
	}
	h.count += other.count
	h.infinite += other.infinite
	h.sum += other.sum
	if other.max > h.max {
		h.max = other.max
	}
	if other.linear != nil {
		if h.linear == nil {
			h.ensureLinear()
		}
		for i, c := range other.linear {
			h.linear[i] += c
		}
		h.suffix.Store(nil)
	}
	if len(other.log) > len(h.log) {
		grown := make([]uint64, len(other.log))
		copy(grown, h.log)
		h.log = grown
	}
	for i, c := range other.log {
		h.log[i] += c
	}
}

// SizeBytes returns the resident size of the histogram's count arrays plus
// the struct itself, for memory-budget accounting of retained profiles. The
// arrays may live in a shared slab (see SetLinearAllocator); they are still
// charged here, since the slab is retained exactly as long as its
// histograms are. The lazily-built suffix cache is charged at its eventual
// size whether or not it exists yet — model evaluation builds it after the
// profile is cached, and accounting must not depend on measurement timing.
func (h *Histogram) SizeBytes() int64 {
	n := int64(unsafe.Sizeof(*h))
	n += 8 * int64(len(h.linear)+len(h.log))
	if h.linear != nil {
		n += 8 * (linearCutoff + 1) // suffix cache, built on first CountAbove
	}
	return n
}

// HistogramState is the exact internal state of a Histogram, exposed for
// the profile persistence codec (internal/profilefmt). Restoring a state
// yields a histogram whose every query — CountAbove, Mean, Quantile — is
// bit-identical to the original: the count arrays are copied verbatim and
// the floating-point sum is carried as raw bits, never re-accumulated.
type HistogramState struct {
	Linear   []uint64 // nil when the exact-count array was never allocated
	Log      []uint64
	Infinite uint64
	Count    uint64
	SumBits  uint64 // math.Float64bits of the finite-sample sum
	Max      int64
}

// LinearLen is the length a non-nil HistogramState.Linear must have.
const LinearLen = linearCutoff

// MaxLogLen bounds the length of HistogramState.Log.
const MaxLogLen = maxLogBuckets

// State snapshots the histogram's internal state. The returned slices
// alias the histogram's storage and must not be mutated.
func (h *Histogram) State() HistogramState {
	return HistogramState{
		Linear:   h.linear,
		Log:      h.log,
		Infinite: h.infinite,
		Count:    h.count,
		SumBits:  math.Float64bits(h.sum),
		Max:      h.max,
	}
}

// Restore overwrites h with the given state. A non-nil Linear must be
// exactly LinearLen long and Log at most MaxLogLen, as State produces;
// Restore takes ownership of the slices.
func (h *Histogram) Restore(st HistogramState) error {
	if st.Linear != nil && len(st.Linear) != linearCutoff {
		return fmt.Errorf("stats: restore: linear array length %d, want %d", len(st.Linear), linearCutoff)
	}
	if len(st.Log) > maxLogBuckets {
		return fmt.Errorf("stats: restore: %d log buckets exceeds limit %d", len(st.Log), maxLogBuckets)
	}
	h.linear = st.Linear
	h.log = st.Log
	h.infinite = st.Infinite
	h.count = st.Count
	h.sum = math.Float64frombits(st.SumBits)
	h.max = st.Max
	h.suffix.Store(nil)
	h.linearAlloc = nil
	return nil
}

// Count returns the total number of samples, including Infinite ones.
func (h *Histogram) Count() uint64 { return h.count }

// InfiniteCount returns the number of Infinite samples.
func (h *Histogram) InfiniteCount() uint64 { return h.infinite }

// Mean returns the mean of the finite samples (0 if none).
func (h *Histogram) Mean() float64 {
	finite := h.count - h.infinite
	if finite == 0 {
		return 0
	}
	return h.sum / float64(finite)
}

// Max returns the largest finite sample recorded (0 if none).
func (h *Histogram) Max() int64 { return h.max }

// CountAbove returns the number of samples with value strictly greater than
// v. Infinite samples always count. Log buckets straddling v contribute a
// uniform-interpolation fraction.
func (h *Histogram) CountAbove(v int64) float64 {
	if h.count == 0 {
		return 0
	}
	total := float64(h.infinite)
	if v < linearCutoff && h.linear != nil {
		start := v + 1
		if start < 0 {
			start = 0
		}
		suf := h.suffix.Load()
		if suf == nil {
			s := make([]uint64, linearCutoff+1)
			for i := linearCutoff - 1; i >= 0; i-- {
				s[i] = s[i+1] + h.linear[i]
			}
			suf = &s
			h.suffix.Store(suf)
		}
		// Exact-integer substitution for the per-element accumulation; see
		// the suffix field comment.
		total += float64((*suf)[start])
	}
	for b, c := range h.log {
		if c == 0 {
			continue
		}
		lo, hi := logBucketBounds(b)
		switch {
		case lo > v:
			total += float64(c)
		case hi-1 <= v:
			// whole bucket at or below v
		default:
			frac := float64(hi-1-v) / float64(hi-lo)
			total += float64(c) * frac
		}
	}
	return total
}

// FracAbove returns the fraction of all samples strictly greater than v.
func (h *Histogram) FracAbove(v int64) float64 {
	if h.count == 0 {
		return 0
	}
	return h.CountAbove(v) / float64(h.count)
}

// Quantile returns an approximate q-quantile (q in [0,1]) of the finite
// samples. Returns 0 for an empty histogram.
func (h *Histogram) Quantile(q float64) int64 {
	finite := h.count - h.infinite
	if finite == 0 {
		return 0
	}
	target := q * float64(finite)
	acc := 0.0
	for i := int64(0); i < linearCutoff && h.linear != nil; i++ {
		acc += float64(h.linear[i])
		if acc >= target {
			return i
		}
	}
	for b, c := range h.log {
		if c == 0 {
			continue
		}
		acc += float64(c)
		if acc >= target {
			lo, hi := logBucketBounds(b)
			return (lo + hi) / 2
		}
	}
	return h.max
}

// Buckets calls fn for every non-empty bucket with a representative value
// (exact for linear buckets, midpoint for log buckets) and its count.
// Infinite samples are reported last with value Infinite.
func (h *Histogram) Buckets(fn func(value int64, count uint64)) {
	if h.linear != nil {
		for i, c := range h.linear {
			if c > 0 {
				fn(int64(i), c)
			}
		}
	}
	for b, c := range h.log {
		if c > 0 {
			lo, hi := logBucketBounds(b)
			fn((lo+hi)/2, c)
		}
	}
	if h.infinite > 0 {
		fn(Infinite, h.infinite)
	}
}

// String renders a short human-readable summary.
func (h *Histogram) String() string {
	return fmt.Sprintf("hist{n=%d inf=%d mean=%.1f max=%d}", h.count, h.infinite, h.Mean(), h.max)
}

// Summary holds basic descriptive statistics of a float64 sample.
type Summary struct {
	N              int
	Mean, Min, Max float64
	Stddev         float64
}

// Summarize computes descriptive statistics of xs.
func Summarize(xs []float64) Summary {
	s := Summary{N: len(xs)}
	if len(xs) == 0 {
		return s
	}
	s.Min, s.Max = xs[0], xs[0]
	sum := 0.0
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(len(xs))
	varsum := 0.0
	for _, x := range xs {
		d := x - s.Mean
		varsum += d * d
	}
	s.Stddev = math.Sqrt(varsum / float64(len(xs)))
	return s
}

// Median returns the median of xs (0 for empty input). xs is not modified.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	n := len(cp)
	if n%2 == 1 {
		return cp[n/2]
	}
	return (cp[n/2-1] + cp[n/2]) / 2
}

// MeanAbs returns the mean of |xs[i]|.
func MeanAbs(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Abs(x)
	}
	return sum / float64(len(xs))
}

// MaxAbs returns the maximum of |xs[i]|.
func MaxAbs(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	return m
}
