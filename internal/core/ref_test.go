// The retained reference for the MAIN/CRIT baselines: a per-thread sum of
// Equation-1 epoch stacks, computed outside Predict as the baselines were
// before they were read off its phase 1. TestBaselinesMatchThreadSum
// requires Prediction.Main and Prediction.Crit to reproduce it bit for bit.
package core

import (
	"math"
	"testing"

	"rppm/internal/arch"
	"rppm/internal/interval"
	"rppm/internal/profiler"
	"rppm/internal/workload"
)

// refThread aggregates the full model's epoch stacks over one thread, in
// epoch order.
func refThread(tp *profiler.ThreadProfile, cfg *arch.Config) interval.Stack {
	var total interval.Stack
	for _, ep := range tp.Epochs {
		st, _ := interval.PredictEpochOpts(ep, cfg, interval.ModelOptions{})
		total.Add(st)
	}
	return total
}

// refBaselines is MAIN (the main thread's summed stack) and CRIT (the
// slowest thread's) from refThread.
func refBaselines(prof *profiler.Profile, cfg *arch.Config) (mainC, critC float64) {
	for t, tp := range prof.Threads {
		c := refThread(tp, cfg).ActiveCycles()
		if t == 0 {
			mainC = c
		}
		if c > critC {
			critC = c
		}
	}
	return mainC, critC
}

// TestBaselinesMatchThreadSum: for every registry entry on every point of
// a 64-config sweep, Main and Crit equal the reference bit for bit, and
// Main ≤ Crit ≤ Cycles — phase 2 never finishes before the slowest
// thread's phase-1 work. Phase 2 adds the per-epoch active times in clock
// order while the stack sums components first, so Crit ≤ Cycles holds
// within a 1e-12 relative slack.
func TestBaselinesMatchThreadSum(t *testing.T) {
	reg, err := workload.DefaultSuites()
	if err != nil {
		t.Fatal(err)
	}
	short := map[string]bool{"kmeans": true, "vips": true, "blackscholes": true}
	cfgs := arch.SweepSpace(64)
	for _, e := range reg.Entries {
		if testing.Short() && !short[e.Name] {
			continue
		}
		t.Run(e.Name, func(t *testing.T) {
			bm, err := e.Benchmark()
			if err != nil {
				t.Fatal(err)
			}
			prof, err := profiler.Run(bm.Build(e.Seed, e.Scale), profiler.Options{})
			if err != nil {
				t.Fatal(err)
			}
			for i := range cfgs {
				cfg := &cfgs[i]
				pred, err := Predict(prof, *cfg)
				if err != nil {
					t.Fatal(err)
				}
				wantMain, wantCrit := refBaselines(prof, cfg)
				if got := pred.Main(); math.Float64bits(got) != math.Float64bits(wantMain) {
					t.Fatalf("%s: Main %v, reference %v", cfg.Name, got, wantMain)
				}
				if got := pred.Crit(); math.Float64bits(got) != math.Float64bits(wantCrit) {
					t.Fatalf("%s: Crit %v, reference %v", cfg.Name, got, wantCrit)
				}
				if pred.Main() > pred.Crit() || pred.Crit() > pred.Cycles*(1+1e-12) {
					t.Fatalf("%s: want Main %v ≤ Crit %v ≤ Cycles %v", cfg.Name, pred.Main(), pred.Crit(), pred.Cycles)
				}
			}
		})
	}
}
