package ilp

import (
	"testing"

	"rppm/internal/arch"
	"rppm/internal/profiler"
	"rppm/internal/trace"
)

// chainWindow builds a window of n instructions forming a single serial
// dependence chain (ILP = 1).
func chainWindow(n int, cls trace.Class) profiler.Window {
	w := profiler.Window{}
	for i := 0; i < n; i++ {
		w.Classes = append(w.Classes, cls)
		if i > 0 {
			w.Dep1 = append(w.Dep1, int16(i-1))
		} else {
			w.Dep1 = append(w.Dep1, -1)
		}
		w.Dep2 = append(w.Dep2, -1)
		w.GlobalRD = append(w.GlobalRD, -1)
		w.IsLoad = append(w.IsLoad, false)
	}
	return w
}

// independentWindow builds a window with no dependences (ILP = ∞).
func independentWindow(n int, cls trace.Class) profiler.Window {
	w := profiler.Window{}
	for i := 0; i < n; i++ {
		w.Classes = append(w.Classes, cls)
		w.Dep1 = append(w.Dep1, -1)
		w.Dep2 = append(w.Dep2, -1)
		w.GlobalRD = append(w.GlobalRD, -1)
		w.IsLoad = append(w.IsLoad, false)
	}
	return w
}

// analyze runs Analyze on a fresh epoch holding the windows and mix.
func analyze(cfg *arch.Config, mix [trace.NumClasses]uint64, windows ...profiler.Window) Result {
	return Analyze(&profiler.Epoch{Mix: mix, Windows: windows}, cfg)
}

func intMix(n uint64) [trace.NumClasses]uint64 {
	var mix [trace.NumClasses]uint64
	mix[trace.IntALU] = n
	return mix
}

func TestSerialChainLimitsDeff(t *testing.T) {
	cfg := arch.Base()
	// A pure serial chain of 1-cycle ALU ops: at most 1 IPC regardless of
	// dispatch width.
	r := analyze(&cfg, intMix(256), chainWindow(256, trace.IntALU))
	if r.Deff > 1.3 {
		t.Fatalf("serial chain Deff = %v, want ~1", r.Deff)
	}
}

func TestIndependentStreamHitsWidth(t *testing.T) {
	cfg := arch.Base() // width 4, 3 ALU ports
	r := analyze(&cfg, intMix(256), independentWindow(256, trace.IntALU))
	// Fully parallel ALU stream: bound by ALU ports (3), not width (4).
	if r.Deff < 2.5 || r.Deff > 3.01 {
		t.Fatalf("independent stream Deff = %v, want ~3 (ALU ports)", r.Deff)
	}
}

func TestWidthScalesDeff(t *testing.T) {
	space := arch.DesignSpace()
	w := independentWindow(256, trace.IntALU)
	prev := 0.0
	for _, cfg := range space {
		c := cfg
		r := analyze(&c, intMix(256), w)
		if r.Deff < prev {
			t.Fatalf("%s: Deff %v decreased with width", cfg.Name, r.Deff)
		}
		prev = r.Deff
	}
}

func TestFPDivThrottlesFU(t *testing.T) {
	cfg := arch.Base()
	var mix [trace.NumClasses]uint64
	mix[trace.FPDiv] = 100 // 100% divides, FPPorts=2 -> Deff <= 2
	r := analyze(&cfg, mix, independentWindow(128, trace.FPDiv))
	if r.Deff > float64(cfg.FPPorts)+1e-9 {
		t.Fatalf("all-divide Deff = %v, want <= %d", r.Deff, cfg.FPPorts)
	}
}

func TestEmptyWindowsFallsBackToWidth(t *testing.T) {
	cfg := arch.Base()
	r := analyze(&cfg, intMix(100))
	// FU limit for pure ALU is 3; no ILP info available.
	if r.Deff > float64(cfg.DispatchWidth) {
		t.Fatalf("Deff %v exceeds width", r.Deff)
	}
	if r.Deff < 1 {
		t.Fatalf("Deff %v too small for ALU-only mix", r.Deff)
	}
}

func TestBranchResolutionDeepChain(t *testing.T) {
	cfg := arch.Base()
	// Chain of 64 ALU ops ending in a branch: resolution ~ chain depth.
	w := chainWindow(64, trace.IntALU)
	w.Classes[63] = trace.Branch
	shallow := chainWindow(64, trace.IntALU)
	shallow.Classes[1] = trace.Branch
	deep := analyze(&cfg, intMix(64), w)
	early := analyze(&cfg, intMix(64), shallow)
	if deep.Cres <= early.Cres {
		t.Fatalf("deep-chain cres %v not larger than early-branch cres %v", deep.Cres, early.Cres)
	}
	if deep.Cres < 30 {
		t.Fatalf("deep-chain cres %v, want ~64", deep.Cres)
	}
}

func TestDeffNeverBelowFloor(t *testing.T) {
	cfg := arch.Base()
	// Degenerate chain of long-latency divides: Deff must stay positive.
	r := analyze(&cfg, intMix(64), chainWindow(64, trace.IntDiv))
	if r.Deff < 0.1-1e-12 {
		t.Fatalf("Deff = %v below floor", r.Deff)
	}
}
