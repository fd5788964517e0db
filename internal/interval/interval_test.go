package interval

import (
	"math"
	"testing"

	"rppm/internal/arch"
	"rppm/internal/profiler"
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

func TestEmptyEpochZeroStack(t *testing.T) {
	cfg := arch.Base()
	st := PredictEpoch(profiler.NewEpoch(), &cfg)
	if st.ActiveCycles() != 0 || st.Instr != 0 {
		t.Fatalf("empty epoch produced %v", st)
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
			st := PredictEpoch(ep, &cfg)
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
	smallest := PredictEpoch(agg, &space[0])
	biggest := PredictEpoch(agg, &space[4])
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
	ms := PredictEpoch(agg, &small)
	mb := PredictEpoch(agg, &big)
	if mb.MemDRAM > ms.MemDRAM+1e-9 {
		t.Fatalf("bigger LLC increased DRAM component: %v vs %v", mb.MemDRAM, ms.MemDRAM)
	}
}

func TestAblationOptionsChangePrediction(t *testing.T) {
	prof := profileOf(t, "kmeans", 0.1) // heavy sharing
	cfg := arch.Base()
	agg := prof.Threads[1].Aggregate()
	full := PredictEpochOpts(agg, &cfg, ModelOptions{})
	noGlobal := PredictEpochOpts(agg, &cfg, ModelOptions{LLCFromPrivateRD: true})
	noMLP := PredictEpochOpts(agg, &cfg, ModelOptions{NoMLP: true})
	if full.ActiveCycles() == noGlobal.ActiveCycles() {
		t.Fatal("LLCFromPrivateRD ablation had no effect on a sharing workload")
	}
	if noMLP.MemDRAM <= full.MemDRAM {
		t.Fatal("disabling MLP should increase the DRAM component")
	}
}

func TestPredictThreadEqualsEpochSum(t *testing.T) {
	prof := profileOf(t, "lud", 0.05)
	cfg := arch.Base()
	tp := prof.Threads[2]
	whole := PredictThread(tp, &cfg)
	var sum Stack
	for _, ep := range tp.Epochs {
		sum.Add(PredictEpoch(ep, &cfg))
	}
	if math.Abs(whole.ActiveCycles()-sum.ActiveCycles()) > 1e-6 {
		t.Fatal("PredictThread disagrees with summed epochs")
	}
}

func TestDiagnoseConsistent(t *testing.T) {
	prof := profileOf(t, "nw", 0.05)
	cfg := arch.Base()
	agg := prof.Threads[1].Aggregate()
	d := Diagnose(agg, &cfg)
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

// TestDiagnoseMatchesPredictEpoch: Diagnose reads the same memoized
// models PredictEpoch does, so its miss rates and MLP rebuild
// PredictEpoch's memory components bit for bit, and it leaves the memo
// PredictEpoch built in place.
func TestDiagnoseMatchesPredictEpoch(t *testing.T) {
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for _, name := range []string{"nw", "kmeans", "streamcluster"} {
		prof := profileOf(t, name, 0.05)
		for _, cfg := range arch.DesignSpace() {
			cfg := cfg
			for tid, tp := range prof.Threads {
				for ei, ep := range tp.Epochs {
					if ep.Instr == 0 {
						continue
					}
					st := PredictEpoch(ep, &cfg)
					models := ep.Models()
					d := Diagnose(ep, &cfg)
					if ep.Models() != models {
						t.Fatalf("%s t%d e%d: Diagnose replaced the epoch's models", name, tid, ei)
					}
					if !same(st.Base, float64(ep.Instr)/d.Deff) {
						t.Fatalf("%s t%d e%d %s: base %v, Diagnose's Deff gives %v", name, tid, ei, cfg.Name, st.Base, float64(ep.Instr)/d.Deff)
					}
					if ep.ILineAccesses > 0 && !same(d.MissRate.L1I, models.Instr.MissRate(cfg.L1I.Lines())) {
						t.Fatalf("%s t%d e%d %s: L1I miss rate %v differs from the memoized model's", name, tid, ei, cfg.Name, d.MissRate.L1I)
					}
					if ep.Loads == 0 {
						continue
					}
					hide := overlapWindow(&cfg, d.Deff)
					exposed := func(lat int) float64 { return math.Max(float64(lat)-hide, 0) }
					loads := float64(ep.Loads)
					mr := d.MissRate
					l2 := loads * (mr.L1D - mr.L2) * exposed(cfg.L2.HitLatency)
					llc := loads * (mr.L2 - mr.LLC) * exposed(cfg.LLC.HitLatency)
					dram := 0.0
					if mr.LLC > 0 {
						dram = loads * mr.LLC * float64(cfg.MemLatency) / effectiveMLP(d.MLP)
					}
					if !same(st.MemL2, l2) || !same(st.MemLLC, llc) || !same(st.MemDRAM, dram) {
						t.Fatalf("%s t%d e%d %s: stack L2/LLC/DRAM %v/%v/%v, Diagnose's miss rates give %v/%v/%v",
							name, tid, ei, cfg.Name, st.MemL2, st.MemLLC, st.MemDRAM, l2, llc, dram)
					}
				}
			}
		}
	}
}
