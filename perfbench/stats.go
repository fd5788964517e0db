package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile: a
// tail percentile with fewer samples beyond it is one or two outliers,
// not a tail.
const minBeyond = 10

// tailPercentiles are the candidates percentile selects from, highest
// first.
var tailPercentiles = []float64{99, 95, 90, 75, 50}

// percentileSel is one selected percentile: its value, which percentile
// it is, how many samples were taken and how many lie beyond it.
type percentileSel struct {
	Value  float64
	P      float64
	N      int
	Beyond int
}

func (s percentileSel) String() string {
	return fmt.Sprintf("p%g of %d samples (%d beyond)", s.P, s.N, s.Beyond)
}

// nearestRank returns the p-th percentile of sorted xs by the nearest-rank
// rule and the number of samples strictly after its rank.
func nearestRank(sorted []float64, p float64) (float64, int) {
	n := len(sorted)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1], n - rank
}

// percentile selects the highest candidate percentile, no higher than
// want, with at least minBeyond samples beyond it. With too few samples
// for any candidate it falls back to the median and says so through
// Beyond. xs is not modified. An empty sample yields the zero value.
func percentile(xs []float64, want float64) percentileSel {
	if len(xs) == 0 {
		return percentileSel{}
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	for _, p := range tailPercentiles {
		if p > want {
			continue
		}
		v, beyond := nearestRank(sorted, p)
		if beyond >= minBeyond || p == 50 {
			return percentileSel{Value: v, P: p, N: len(sorted), Beyond: beyond}
		}
	}
	v, beyond := nearestRank(sorted, 50)
	return percentileSel{Value: v, P: 50, N: len(sorted), Beyond: beyond}
}

// groupTail selects the tail percentile (at most want) within each group
// of samples and returns the median over the groups with each group's
// selection. A transient stall inflates the tail of one group, not the
// reported figure.
func groupTail(groups [][]float64, want float64) (float64, []percentileSel) {
	sels := make([]percentileSel, 0, len(groups))
	vals := make([]float64, 0, len(groups))
	for _, g := range groups {
		if len(g) == 0 {
			continue
		}
		sel := percentile(g, want)
		sels = append(sels, sel)
		vals = append(vals, sel.Value)
	}
	return median(vals), sels
}

// describeGroups summarises per-group selections for the report.
func describeGroups(sels []percentileSel) string {
	if len(sels) == 0 {
		return "no samples"
	}
	minN, minBeyond := sels[0].N, sels[0].Beyond
	for _, s := range sels {
		minN, minBeyond = min(minN, s.N), min(minBeyond, s.Beyond)
	}
	return fmt.Sprintf("median over %d groups of p%g (each >= %d samples, >= %d beyond)", len(sels), sels[0].P, minN, minBeyond)
}

// medianOfMedians returns the median over groups of each group's median:
// with samples grouped by input (one entry's profiling passes, say), a
// noisy sample moves its group's median, not which group the overall
// median lands on.
func medianOfMedians(groups map[string][]float64) float64 {
	meds := make([]float64, 0, len(groups))
	for _, g := range groups {
		meds = append(meds, median(g))
	}
	return median(meds)
}

// minOf returns the smallest of xs (0 for none).
func minOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		m = min(m, x)
	}
	return m
}

// median returns the median of xs (mean of the middle two for even n).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// durationsMS converts durations to milliseconds.
func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// durationsNS converts durations to nanoseconds.
func durationsNS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d)
	}
	return out
}

// relErrPct is |pred - ref| / ref in percent.
func relErrPct(pred, ref float64) float64 {
	return 100 * math.Abs(pred-ref) / ref
}

// setupReps is how many times each workload sets up per run.
const setupReps = 11

// setupTimes runs setup reps times and returns the last result with the
// median duration in seconds: set-up is measured several times so one
// slow repetition does not move setup_s. discard, when non-nil, releases
// each earlier result.
func setupTimes[T any](reps int, setup func() (T, error), discard func(T)) (T, float64, error) {
	var last T
	secs := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		if i > 0 && discard != nil {
			discard(last)
		}
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			return last, 0, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		last = v
	}
	return last, median(secs), nil
}
