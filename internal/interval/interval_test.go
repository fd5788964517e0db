package interval

import (
	"fmt"
	"math"
	"testing"

	"rppm/internal/arch"
	"rppm/internal/mlp"
	"rppm/internal/profiler"
	"rppm/internal/stats"
	"rppm/internal/trace"
	"rppm/internal/workload"
)

func profileOf(t *testing.T, name string, scale float64) *profiler.Profile {
	t.Helper()
	bm, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	p, err := profiler.Run(bm.Build(1, scale), profiler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// stackOf is the full model's stack for one epoch.
func stackOf(ep *profiler.Epoch, cfg *arch.Config) Stack {
	st, _ := PredictEpochOpts(ep, cfg, ModelOptions{})
	return st
}

func TestEmptyEpochZeroStack(t *testing.T) {
	cfg := arch.Base()
	st, d := PredictEpochOpts(profiler.NewEpoch(), &cfg, ModelOptions{})
	if st.ActiveCycles() != 0 || st.Instr != 0 {
		t.Fatalf("empty epoch produced %v", st)
	}
	if d.MLP != 1 || d.MLPMisses != 0 {
		t.Fatalf("empty epoch diagnosis %+v, want MLP divisor 1 and no misses", d)
	}
}

func TestStackArithmetic(t *testing.T) {
	a := Stack{Instr: 10, Base: 5, Branch: 1, ICache: 2, MemL2: 3, MemLLC: 4, MemDRAM: 5, Sync: 6}
	b := Stack{Instr: 10, Base: 5}
	a.Add(b)
	if a.Instr != 20 || a.Base != 10 {
		t.Fatalf("Add broken: %+v", a)
	}
	if a.ActiveCycles() != 10+1+2+3+4+5 {
		t.Fatalf("ActiveCycles = %v", a.ActiveCycles())
	}
	if a.TotalCycles() != a.ActiveCycles()+6 {
		t.Fatalf("TotalCycles = %v", a.TotalCycles())
	}
	if math.Abs(a.CPI()-a.TotalCycles()/20) > 1e-12 {
		t.Fatalf("CPI = %v", a.CPI())
	}
	var zero Stack
	if zero.CPI() != 0 {
		t.Fatal("zero stack CPI should be 0")
	}
}

func TestComponentsSumToTotal(t *testing.T) {
	st := Stack{Instr: 1, Base: 1, Branch: 2, ICache: 3, MemL2: 4, MemLLC: 5, MemDRAM: 6, Sync: 7}
	sum := 0.0
	for _, c := range st.Components() {
		sum += c.Cycles
	}
	if math.Abs(sum-st.TotalCycles()) > 1e-12 {
		t.Fatalf("components sum %v != total %v", sum, st.TotalCycles())
	}
}

func TestBasePositiveAndBounded(t *testing.T) {
	prof := profileOf(t, "cfd", 0.05)
	cfg := arch.Base()
	for _, tp := range prof.Threads {
		for _, ep := range tp.Epochs {
			if ep.Instr == 0 {
				continue
			}
			st := stackOf(ep, &cfg)
			if st.Base <= 0 {
				t.Fatal("non-positive base for non-empty epoch")
			}
			// Base cannot beat one instruction per cycle per dispatch slot.
			if st.Base < float64(ep.Instr)/float64(cfg.DispatchWidth)-1e-9 {
				t.Fatalf("base %v below width bound for %d instructions", st.Base, ep.Instr)
			}
		}
	}
}

func TestWiderCoreLowersBase(t *testing.T) {
	prof := profileOf(t, "nn", 0.1)
	space := arch.DesignSpace()
	agg := prof.Threads[1].Aggregate()
	smallest := stackOf(agg, &space[0])
	biggest := stackOf(agg, &space[4])
	if biggest.Base > smallest.Base {
		t.Fatalf("6-wide base %v above 2-wide base %v", biggest.Base, smallest.Base)
	}
}

func TestBiggerCacheLowersMemory(t *testing.T) {
	prof := profileOf(t, "bfs", 0.1)
	small := arch.Base()
	big := arch.Base()
	big.LLC.SizeBytes *= 8
	agg := prof.Threads[1].Aggregate()
	ms := stackOf(agg, &small)
	mb := stackOf(agg, &big)
	if mb.MemDRAM > ms.MemDRAM+1e-9 {
		t.Fatalf("bigger LLC increased DRAM component: %v vs %v", mb.MemDRAM, ms.MemDRAM)
	}
}

func TestAblationOptionsChangePrediction(t *testing.T) {
	prof := profileOf(t, "kmeans", 0.1) // heavy sharing
	cfg := arch.Base()
	agg := prof.Threads[1].Aggregate()
	full, _ := PredictEpochOpts(agg, &cfg, ModelOptions{})
	noGlobal, _ := PredictEpochOpts(agg, &cfg, ModelOptions{LLCFromPrivateRD: true})
	noMLP, _ := PredictEpochOpts(agg, &cfg, ModelOptions{NoMLP: true})
	if full.ActiveCycles() == noGlobal.ActiveCycles() {
		t.Fatal("LLCFromPrivateRD ablation had no effect on a sharing workload")
	}
	if noMLP.MemDRAM <= full.MemDRAM {
		t.Fatal("disabling MLP should increase the DRAM component")
	}
}

func TestDiagnoseConsistent(t *testing.T) {
	prof := profileOf(t, "nw", 0.05)
	cfg := arch.Base()
	agg := prof.Threads[1].Aggregate()
	_, d := PredictEpochOpts(agg, &cfg, ModelOptions{})
	if d.Deff <= 0 || d.Deff > float64(cfg.DispatchWidth) {
		t.Fatalf("Deff = %v", d.Deff)
	}
	if d.MissRate.L1D < d.MissRate.L2 || d.MissRate.L2 < d.MissRate.LLC {
		t.Fatalf("miss rates not monotone: %+v", d.MissRate)
	}
	if d.MLP < 1 || d.MLP > float64(cfg.MSHRs) {
		t.Fatalf("MLP = %v", d.MLP)
	}
	// nw pointer-chases (LoadChainFrac 0.5): its MLP must be low.
	if d.MLP > 3 {
		t.Fatalf("nw MLP = %v, expected pointer-chasing to keep it low", d.MLP)
	}
}

func TestEffectiveMLP(t *testing.T) {
	if effectiveMLP(1) != 1 {
		t.Fatal("effectiveMLP(1) must be 1")
	}
	if e := effectiveMLP(5); e <= 1 || e >= 5 {
		t.Fatalf("effectiveMLP(5) = %v, want in (1, 5)", e)
	}
}

// explainStack requires st to rebuild bit for bit from d: Base, Branch,
// MemL2, MemLLC and MemDRAM. Where no MLP divisor applies (LLC miss rate
// 0, or NoMLP) d must report the divisor 1 and no sampled misses. It
// reports whether an MLP divisor applied.
func explainStack(t *testing.T, where string, ep *profiler.Epoch, cfg *arch.Config, opts ModelOptions, st Stack, d Diagnosis) bool {
	t.Helper()
	at := func(what string, got, want float64) {
		t.Helper()
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s %s %+v: %s %v, diagnosis gives %v", where, cfg.Name, opts, what, got, want)
		}
	}
	at("base", st.Base, float64(ep.Instr)/d.Deff)
	mispredicts := d.BranchMiss * float64(ep.Branch.Branches())
	at("branch", st.Branch, mispredicts*(d.Cres+float64(cfg.FrontendDepth)))

	mr := d.MissRate
	hide := overlapWindow(cfg, d.Deff)
	exposed := func(lat int) float64 { return math.Max(float64(lat)-hide, 0) }
	loads := float64(ep.Loads)
	at("L2", st.MemL2, loads*(mr.L1D-mr.L2)*exposed(cfg.L2.HitLatency))
	at("LLC", st.MemLLC, loads*(mr.L2-mr.LLC)*exposed(cfg.LLC.HitLatency))
	dram := 0.0
	if mr.LLC > 0 {
		dram = loads * mr.LLC * float64(cfg.MemLatency) / d.MLP
	}
	at("DRAM", st.MemDRAM, dram)

	if mr.LLC == 0 || opts.NoMLP {
		if d.MLP != 1 || d.MLPMisses != 0 {
			t.Fatalf("%s %s %+v: no MLP applied, but diagnosis reports MLP %v over %d misses",
				where, cfg.Name, opts, d.MLP, d.MLPMisses)
		}
		return false
	}
	if d.MLP < 1 {
		t.Fatalf("%s %s %+v: MLP divisor %v below 1", where, cfg.Name, opts, d.MLP)
	}
	return true
}

// TestDiagnosisExplainsStack: the Diagnosis PredictEpochOpts returns is
// the input set its stack was computed from, so the stack rebuilds bit for
// bit from it, under the full model and under each ablation, on every
// epoch of four benchmarks (vips has loading epochs without LLC misses)
// and on coldWindowEpoch, where the divisor that applied (1) and the
// window's raw MLP differ.
func TestDiagnosisExplainsStack(t *testing.T) {
	optSets := []ModelOptions{{}, {LLCFromPrivateRD: true}, {NoMLP: true}}
	var noLLCMiss, mlpApplied int
	for _, name := range []string{"nw", "kmeans", "streamcluster", "vips"} {
		prof := profileOf(t, name, 0.05)
		for _, cfg := range arch.DesignSpace() {
			cfg := cfg
			for _, opts := range optSets {
				for tid, tp := range prof.Threads {
					for ei, ep := range tp.Epochs {
						if ep.Instr == 0 {
							continue
						}
						st, d := PredictEpochOpts(ep, &cfg, opts)
						where := fmt.Sprintf("%s t%d e%d", name, tid, ei)
						if explainStack(t, where, ep, &cfg, opts, st, d) {
							mlpApplied++
						} else if ep.Loads > 0 && d.MissRate.LLC == 0 {
							noLLCMiss++
						}
					}
				}
			}
		}
	}
	if noLLCMiss == 0 || mlpApplied == 0 {
		t.Fatalf("coverage: %d loading epochs without LLC misses, %d with MLP applied; want both > 0",
			noLLCMiss, mlpApplied)
	}

	ep := coldWindowEpoch()
	cfg := arch.Base()
	if raw, _ := mlp.Compute(ep.Windows, cfg.ROBSize, cfg.MSHRs, 0); raw <= 1 {
		t.Fatalf("cold window's raw MLP %v; the case needs overlapping sampled misses", raw)
	}
	for _, opts := range optSets {
		st, d := PredictEpochOpts(ep, &cfg, opts)
		if d.MissRate.LLC != 0 {
			t.Fatalf("cold-window epoch: LLC miss rate %v, want 0 from all-hit histograms", d.MissRate.LLC)
		}
		explainStack(t, "cold-window epoch", ep, &cfg, opts, st, d)
	}
}

// coldWindowEpoch is an epoch whose sampled window holds independent
// cold loads while its reuse-distance histograms say every load hits: its
// LLC miss rate is 0, yet mlp.Compute finds overlapping misses in it.
func coldWindowEpoch() *profiler.Epoch {
	const n = 64
	ep := profiler.NewEpoch()
	w := profiler.Window{
		Classes:  make([]trace.Class, n),
		Dep1:     make([]int16, n),
		Dep2:     make([]int16, n),
		GlobalRD: make([]int64, n),
		IsLoad:   make([]bool, n),
	}
	for i := 0; i < n; i++ {
		w.Classes[i], w.Dep1[i], w.Dep2[i] = trace.Load, -1, -1
		w.GlobalRD[i], w.IsLoad[i] = stats.Infinite, true
	}
	ep.Windows = []profiler.Window{w}
	ep.Instr, ep.Loads = n, n
	ep.Mix[trace.Load] = n
	ep.PrivateRD.AddN(1, n)
	ep.GlobalRD.AddN(1, n)
	return ep
}
