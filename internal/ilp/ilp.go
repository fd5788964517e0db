// Package ilp computes the effective dispatch rate (Deff) and the branch
// resolution time (cres) of the interval model from profiled micro-traces.
//
// Following Van den Steen et al. (TC 2016), the base component of the CPI
// stack is N/Deff where Deff is limited by three mechanisms:
//
//  1. the front-end dispatch width D;
//  2. the ILP exposed by the application within a ROB-sized window: a
//     window of W instructions whose latency-weighted critical path is L
//     cycles cannot sustain more than W/L instructions per cycle;
//  3. functional-unit contention: a class making up fraction f of the mix
//     with p issue ports per cycle limits throughput to p/f.
//
// The branch resolution time cres — the time between a mispredicted
// branch's dispatch and its execution — is the latency-weighted depth of
// the branch's dependence chain inside the window, divided by the rate at
// which the chain's producers issue.
package ilp

import (
	"sync"

	"rppm/internal/arch"
	"rppm/internal/profiler"
	"rppm/internal/trace"
)

// Result carries the micro-trace-derived model inputs for one epoch.
type Result struct {
	// Deff is the effective dispatch rate in instructions per cycle.
	Deff float64
	// Cres is the mean branch resolution time in cycles.
	Cres float64
}

// classLatencies returns the execution latency of every class used for
// critical-path weighting. Loads are weighted with the L1 hit latency
// loadLat: the base component assumes cache hits, misses are charged to
// the memory components.
func classLatencies(loadLat int) [trace.NumClasses]float64 {
	var lat [trace.NumClasses]float64
	for c := range lat {
		lat[c] = float64(trace.Class(c).ExecLatency())
	}
	lat[trace.Load] = float64(loadLat)
	return lat
}

// Analyze computes Deff and Cres for an epoch's micro-trace windows under
// a configuration; the epoch's instruction-class mix sets the
// functional-unit contention bound. The window walk reads only the ROB
// length, clamped to the longest window, and the L1D hit latency, so its
// result is memoized on the epoch under that key (profiler.ILPWalkKey):
// predicting an epoch on many configurations walks it once per key.
func Analyze(ep *profiler.Epoch, cfg *arch.Config) Result {
	res := Result{
		Deff: float64(cfg.DispatchWidth),
		Cres: float64(cfg.L1D.HitLatency), // floor when no branches observed
	}

	if len(ep.Windows) > 0 {
		longest := 0
		for wi := range ep.Windows {
			longest = max(longest, ep.Windows[wi].Len())
		}
		key := profiler.ILPWalkKey{ROB: min(cfg.ROBSize, longest), LoadLatency: cfg.L1D.HitLatency}
		walk, ok := ep.ILPWalk(key)
		if !ok {
			walk = windowILP(ep.Windows, key)
			ep.StoreILPWalk(key, walk)
		}
		if walk.HaveILP && walk.IPC < res.Deff {
			res.Deff = walk.IPC
		}
		if walk.HaveBranches {
			res.Cres = walk.Cres
		}
	}

	if fu := fuLimit(ep.Mix, cfg); fu < res.Deff {
		res.Deff = fu
	}
	if res.Deff < 0.1 {
		res.Deff = 0.1
	}
	return res
}

// fuLimit returns the functional-unit throughput bound for the mix.
func fuLimit(mix [trace.NumClasses]uint64, cfg *arch.Config) float64 {
	var total uint64
	for _, n := range mix {
		total += n
	}
	if total == 0 {
		return float64(cfg.DispatchWidth)
	}
	ports := func(c trace.Class) float64 {
		switch c {
		case trace.IntALU:
			return float64(cfg.IntALUPorts)
		case trace.IntMul, trace.IntDiv:
			return float64(cfg.IntMulPorts)
		case trace.FPAdd, trace.FPMul, trace.FPDiv:
			return float64(cfg.FPPorts)
		case trace.Load:
			return float64(cfg.LoadPorts)
		case trace.Store:
			return float64(cfg.StorePorts)
		case trace.Branch:
			return float64(cfg.BranchUnits)
		}
		return 1
	}
	limit := float64(cfg.DispatchWidth)
	for c := 0; c < trace.NumClasses; c++ {
		frac := float64(mix[c]) / float64(total)
		if frac <= 0 {
			continue
		}
		// Divides and multiplies are pipelined but not fully; approximate
		// occupancy with one op per port per cycle (issue bandwidth bound).
		if b := ports(trace.Class(c)) / frac; b < limit {
			limit = b
		}
	}
	return limit
}

// depthPool recycles windowILP's chain-depth buffers, so steady-state
// predictions neither allocate nor zero them.
var depthPool = sync.Pool{New: func() any { return new([]float64) }}

// windowILP walks the micro-traces, partitions them into k.ROB-sized
// chunks, and returns the harmonic-mean IPC bound W/L plus the mean branch
// resolution depth. k.ROB must be clamped to the longest window, as
// Analyze does, and be positive when any window holds an instruction.
// Every window class must be below trace.NumClasses and every dependence
// must name an earlier instruction (or -1), as the profiler emits and the
// profile codec enforces.
func windowILP(windows []profiler.Window, k profiler.ILPWalkKey) profiler.ILPWalk {
	classLat := classLatencies(k.LoadLatency)
	rob := k.ROB
	var cycleSum, instrSum float64
	var branchDepthSum float64
	var branchCount float64

	// A chunk never spans windows, so the clamped ROB is the longest
	// chunk: the buffer is sized to it, not to the configured ROB.
	buf := depthPool.Get().(*[]float64)
	if cap(*buf) < rob {
		*buf = make([]float64, rob)
	}
	depth := (*buf)[:rob]
	for wi := range windows {
		w := &windows[wi]
		n := w.Len()
		for start := 0; start < n; start += rob {
			end := start + rob
			if end > n {
				end = n
			}
			chunkCrit := 0.0
			for i := start; i < end; i++ {
				lat := classLat[w.Classes[i]]
				d := lat
				if p := w.Dep1[i]; p >= 0 && int(p) >= start {
					if v := depth[int(p)-start] + lat; v > d {
						d = v
					}
				}
				if p := w.Dep2[i]; p >= 0 && int(p) >= start {
					if v := depth[int(p)-start] + lat; v > d {
						d = v
					}
				}
				depth[i-start] = d
				if d > chunkCrit {
					chunkCrit = d
				}
				if w.Classes[i] == trace.Branch {
					// Resolution time: the chain depth up to and including
					// the branch's own execution.
					branchDepthSum += d
					branchCount++
				}
			}
			chunkLen := float64(end - start)
			if chunkLen < 8 {
				// Too small to estimate steady-state ILP.
				continue
			}
			cycleSum += chunkCrit
			instrSum += chunkLen
		}
	}
	depthPool.Put(buf)
	var walk profiler.ILPWalk
	if instrSum > 0 && cycleSum > 0 {
		walk.IPC = instrSum / cycleSum
		walk.HaveILP = true
	}
	if branchCount > 0 {
		walk.Cres = branchDepthSum / branchCount
		walk.HaveBranches = true
	}
	return walk
}
