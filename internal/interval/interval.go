// Package interval implements the single-threaded mechanistic interval
// model — Equation 1 of the RPPM paper — on top of the
// microarchitecture-independent epoch profiles:
//
//	C = N/Deff + m_bpred·(c_res + c_fr) + Σ m_ILi·c_Li+1 + m_LLC·c_mem/MLP
//
// extended with explicit intermediate data-cache components (L2 and LLC
// hits after private misses) so that the predicted CPI stacks can be
// compared component-by-component against the simulator (Figure 5).
//
// Every input is either microarchitecture-independent profile data (reuse
// distance distributions, branch statistics, dependence micro-traces) or a
// property of the target arch.Config. Nothing here ever looks at the
// simulator.
package interval

import (
	"fmt"

	"rppm/internal/arch"
	"rppm/internal/ilp"
	"rppm/internal/mlp"
	"rppm/internal/profiler"
)

// Stack is a CPI stack in absolute cycles for one region of execution.
type Stack struct {
	Instr uint64

	Base    float64 // N / Deff
	Branch  float64 // misprediction penalties
	ICache  float64 // instruction fetch stalls
	MemL2   float64 // data loads served by the private L2
	MemLLC  float64 // data loads served by the shared LLC
	MemDRAM float64 // data loads to memory (MLP-adjusted)
	Sync    float64 // idle waiting on synchronization (filled by internal/core)
}

// ActiveCycles returns the stack total excluding synchronization idle time.
func (s Stack) ActiveCycles() float64 {
	return s.Base + s.Branch + s.ICache + s.MemL2 + s.MemLLC + s.MemDRAM
}

// TotalCycles returns active plus synchronization cycles.
func (s Stack) TotalCycles() float64 { return s.ActiveCycles() + s.Sync }

// CPI returns cycles per instruction (0 for an empty region).
func (s Stack) CPI() float64 {
	if s.Instr == 0 {
		return 0
	}
	return s.TotalCycles() / float64(s.Instr)
}

// Add accumulates another stack into s.
func (s *Stack) Add(o Stack) {
	s.Instr += o.Instr
	s.Base += o.Base
	s.Branch += o.Branch
	s.ICache += o.ICache
	s.MemL2 += o.MemL2
	s.MemLLC += o.MemLLC
	s.MemDRAM += o.MemDRAM
	s.Sync += o.Sync
}

// Component is one named CPI-stack component, for reporting.
type Component struct {
	Name   string
	Cycles float64
}

// Components returns the stack's components in canonical plotting order.
func (s Stack) Components() []Component {
	return []Component{
		{"base", s.Base},
		{"branch", s.Branch},
		{"icache", s.ICache},
		{"mem-l2", s.MemL2},
		{"mem-llc", s.MemLLC},
		{"mem-dram", s.MemDRAM},
		{"sync", s.Sync},
	}
}

func (s Stack) String() string {
	return fmt.Sprintf("stack{N=%d base=%.0f br=%.0f I$=%.0f L2=%.0f LLC=%.0f mem=%.0f sync=%.0f}",
		s.Instr, s.Base, s.Branch, s.ICache, s.MemL2, s.MemLLC, s.MemDRAM, s.Sync)
}

// overlapWindow returns the number of miss-latency cycles the out-of-order
// window hides: while a load miss is outstanding the core keeps dispatching
// until the ROB fills, covering roughly half a window drain at the
// effective dispatch rate.
func overlapWindow(cfg *arch.Config, deff float64) float64 {
	return float64(cfg.ROBSize) / (2 * deff)
}

// ModelOptions enable ablations of individual model mechanisms, used by the
// ablation benchmarks to quantify what each mechanism buys (DESIGN.md §5).
// The zero value is the full model.
type ModelOptions struct {
	// LLCFromPrivateRD predicts the shared-LLC miss rate from the
	// per-thread reuse distances instead of the global ones, removing the
	// multithreaded StatStack extension (no positive/negative interference).
	LLCFromPrivateRD bool
	// NoMLP disables the memory-level-parallelism divisor: every DRAM miss
	// is charged the full memory latency.
	NoMLP bool
}

// Diagnosis is the model inputs behind one PredictEpochOpts stack: the
// quantities Equation 1 combined, for calibration tooling and tests.
type Diagnosis struct {
	Deff     float64
	Cres     float64
	MissRate struct {
		L1D, L2, LLC float64 // LLC is the private-RD rate under LLCFromPrivateRD
		L1I          float64
	}
	// MLP is the divisor applied to the DRAM component: 1 when the LLC
	// miss rate is 0 or under NoMLP, where mlp.Compute is not called and
	// MLPMisses stays 0.
	MLP        float64
	MLPMisses  int
	BranchMiss float64
}

// PredictEpochOpts evaluates Equation 1 for one epoch profile under a
// target configuration and model options. It returns the predicted CPI
// stack (Sync left at zero) and the inputs it was computed from.
func PredictEpochOpts(ep *profiler.Epoch, cfg *arch.Config, opts ModelOptions) (Stack, Diagnosis) {
	st := Stack{Instr: ep.Instr}
	d := Diagnosis{MLP: 1}
	if ep.Instr == 0 {
		return st, d
	}

	res := ilp.Analyze(ep.Windows, ep.Mix, cfg)
	d.Deff, d.Cres = res.Deff, res.Cres
	st.Base = float64(ep.Instr) / res.Deff

	// Branch component: mispredictions times resolution plus refill.
	d.BranchMiss = ep.Branch.MissRate(cfg.BPredBytes)
	mispredicts := d.BranchMiss * float64(ep.Branch.Branches())
	st.Branch = mispredicts * (res.Cres + float64(cfg.FrontendDepth))

	hide := overlapWindow(cfg, res.Deff)
	exposed := func(lat int) float64 {
		e := float64(lat) - hide
		if e < 0 {
			return 0
		}
		return e
	}

	// Data cache components: private reuse distances predict the private
	// L1/L2, global reuse distances predict the shared LLC (the
	// multithreaded StatStack extension). The models are the epoch's
	// memoized ones, built once per profile.
	if ep.Loads > 0 {
		models := ep.Models()
		pm, gm := models.Private, models.Global
		if opts.LLCFromPrivateRD {
			gm = pm
		}
		mL1 := pm.MissRate(cfg.L1D.Lines())
		mL2 := minF(pm.MissRate(cfg.L2.Lines()), mL1)
		mLLC := minF(gm.MissRate(cfg.LLC.Lines()), mL2)
		d.MissRate.L1D, d.MissRate.L2, d.MissRate.LLC = mL1, mL2, mLLC

		loads := float64(ep.Loads)
		st.MemL2 = loads * (mL1 - mL2) * exposed(cfg.L2.HitLatency)
		st.MemLLC = loads * (mL2 - mLLC) * exposed(cfg.LLC.HitLatency)

		if mLLC > 0 {
			// A long-latency miss costs the full memory latency (Eq. 1):
			// the work dispatched while the window fills is already part of
			// the base component, so no hide term applies — only MLP.
			if !opts.NoMLP {
				var raw float64
				raw, d.MLPMisses = mlp.Compute(ep.Windows, cfg.ROBSize, cfg.MSHRs,
					gm.CriticalDistance(cfg.LLC.Lines()))
				d.MLP = effectiveMLP(raw)
			}
			st.MemDRAM = loads * mLLC * float64(cfg.MemLatency) / d.MLP
		}
	}

	// Instruction cache component. A front-end miss starves dispatch, but
	// while the back end is already stalled on data misses the starvation
	// is invisible: discount fetch-miss cycles by the fraction of time the
	// window is memory-bound.
	if ep.ILineAccesses > 0 {
		im := ep.Models().Instr
		m1 := im.MissRate(cfg.L1I.Lines())
		d.MissRate.L1I = m1
		m2 := minF(im.MissRate(cfg.L2.Lines()), m1)
		m3 := minF(im.MissRate(cfg.LLC.Lines()), m2)
		acc := float64(ep.ILineAccesses)
		raw := acc * ((m1-m2)*float64(cfg.L2.HitLatency) +
			(m2-m3)*float64(cfg.LLC.HitLatency) +
			m3*float64(cfg.MemLatency))
		memStall := st.MemL2 + st.MemLLC + st.MemDRAM
		busy := st.Base + memStall
		if busy > 0 {
			raw *= st.Base / busy
		}
		st.ICache = raw
	}
	return st, d
}

// mlpStagger is the one-time calibration constant for memory-level
// parallelism: the micro-trace model counts how many independent misses
// *could* overlap inside a ROB window, but in a real pipeline the window
// fills gradually — misses enter the scheduler spread over time, so only
// about half of the ideal overlap materializes. The constant is a property
// of the out-of-order core family (measured once against internal/sim
// across compute-, streaming- and pointer-chasing workloads, where the
// implied ratio clustered around 0.6), not of any workload.
const mlpStagger = 0.6

// effectiveMLP converts ideal window MLP into achieved MLP.
func effectiveMLP(raw float64) float64 {
	return 1 + mlpStagger*(raw-1)
}

func minF(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
