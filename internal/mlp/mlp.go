// Package mlp implements the microarchitecture-independent memory-level
// parallelism model of Van den Steen & Eeckhout (CAL 2018) as used by RPPM:
// the D-cache stall component of the interval model divides the main-memory
// latency by the average number of overlapping long-latency loads.
//
// The profile supplies micro-trace windows with load positions, load-load
// dependence edges and per-access global reuse distances. At prediction
// time, StatStack's critical reuse distance for the LLC size decides which
// loads miss the LLC.
// Within each ROB-sized chunk, misses that are mutually independent can be
// outstanding simultaneously; chains of dependent misses (pointer chasing)
// serialize. MLP for a chunk is therefore
//
//	MLP = (number of misses) / (length of the longest dependent-miss chain),
//
// and the epoch's MLP is the miss-weighted mean over chunks, clamped to
// [1, MSHRs].
package mlp

import (
	"sync"

	"rppm/internal/profiler"
	"rppm/internal/stats"
)

// chainPool recycles Compute's chain-depth buffers, so steady-state
// predictions neither allocate nor zero them.
var chainPool = sync.Pool{New: func() any { return new([]int) }}

// Compute returns the predicted MLP for the given windows under a ROB of
// robSize entries and mshrs outstanding-miss registers. A load misses the
// LLC when its global reuse distance is infinite (cold and coherence
// misses) or at least crit, the LLC's critical reuse distance.
// The second return value is the number of LLC-missing loads observed in
// the windows (model inputs' sample size), useful for diagnostics.
func Compute(windows []profiler.Window, robSize, mshrs int, crit float64) (float64, int) {
	if robSize < 1 {
		robSize = 1
	}
	var weighted float64
	var totalMisses int

	// chainDepth[i] = length of the longest chain of dependent LLC misses
	// ending at instruction i (0 when i does not depend on any miss and is
	// not one itself). A chunk never spans windows, so it is at most
	// min(ROB, longest window) long.
	chunk := 0
	for wi := range windows {
		chunk = max(chunk, windows[wi].Len())
	}
	chunk = min(chunk, robSize)
	buf := chainPool.Get().(*[]int)
	if cap(*buf) < chunk {
		*buf = make([]int, chunk)
	}
	chainDepth := (*buf)[:chunk]
	for wi := range windows {
		w := &windows[wi]
		n := w.Len()
		for start := 0; start < n; start += robSize {
			end := start + robSize
			if end > n {
				end = n
			}
			misses := 0
			maxChain := 0
			for i := start; i < end; i++ {
				inherited := 0
				if p := w.Dep1[i]; p >= 0 && int(p) >= start {
					if d := chainDepth[int(p)-start]; d > inherited {
						inherited = d
					}
				}
				if p := w.Dep2[i]; p >= 0 && int(p) >= start {
					if d := chainDepth[int(p)-start]; d > inherited {
						inherited = d
					}
				}
				d := inherited
				if rd := w.GlobalRD[i]; w.IsLoad[i] && rd >= 0 &&
					(rd == stats.Infinite || float64(rd) >= crit) {
					misses++
					d = inherited + 1
				}
				chainDepth[i-start] = d
				if d > maxChain {
					maxChain = d
				}
			}
			if misses == 0 {
				continue
			}
			mlp := float64(misses) / float64(maxChain)
			weighted += mlp * float64(misses)
			totalMisses += misses
		}
	}
	chainPool.Put(buf)
	if totalMisses == 0 {
		return 1, 0
	}
	mlp := weighted / float64(totalMisses)
	if mlp < 1 {
		mlp = 1
	}
	if m := float64(mshrs); mlp > m {
		mlp = m
	}
	return mlp, totalMisses
}
