package rppm_test

import (
	"context"
	"math"
	"sync/atomic"
	"testing"

	"rppm"
)

func TestQuickstartFlow(t *testing.T) {
	bench, err := rppm.BenchmarkByName("streamcluster")
	if err != nil {
		t.Fatal(err)
	}
	profile, err := rppm.Profile(bench.Build(1, 0.05))
	if err != nil {
		t.Fatal(err)
	}
	pred, err := rppm.Predict(profile, rppm.BaseConfig())
	if err != nil {
		t.Fatal(err)
	}
	golden, err := rppm.Simulate(bench.Build(1, 0.05), rppm.BaseConfig())
	if err != nil {
		t.Fatal(err)
	}
	e := math.Abs(pred.Cycles-golden.Cycles) / golden.Cycles
	if e > 0.5 {
		t.Fatalf("prediction error %.0f%% at quickstart scale", e*100)
	}
}

func TestProfileReuseAcrossConfigs(t *testing.T) {
	bench, err := rppm.BenchmarkByName("lud")
	if err != nil {
		t.Fatal(err)
	}
	profile, err := rppm.Profile(bench.Build(1, 0.05))
	if err != nil {
		t.Fatal(err)
	}
	space := rppm.DesignSpace()
	if len(space) != 5 {
		t.Fatalf("design space has %d points", len(space))
	}
	seen := map[float64]bool{}
	for _, cfg := range space {
		pred, err := rppm.Predict(profile, cfg)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		if pred.Seconds <= 0 {
			t.Fatalf("%s: non-positive time", cfg.Name)
		}
		seen[pred.Seconds] = true
	}
	if len(seen) < 3 {
		t.Fatal("predictions do not differentiate design points")
	}
}

func TestBaselinesOrdering(t *testing.T) {
	bench, _ := rppm.BenchmarkByName("swaptions")
	profile, err := rppm.Profile(bench.Build(1, 0.05))
	if err != nil {
		t.Fatal(err)
	}
	pred, err := rppm.Predict(profile, rppm.BaseConfig())
	if err != nil {
		t.Fatal(err)
	}
	if mainC, critC := pred.Main(), pred.Crit(); critC < mainC {
		t.Fatalf("CRIT (%v) below MAIN (%v)", critC, mainC)
	}
}

func TestBottleGraphs(t *testing.T) {
	bench, _ := rppm.BenchmarkByName("vips")
	prog := bench.Build(1, 0.05)
	profile, err := rppm.Profile(prog)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := rppm.Predict(profile, rppm.BaseConfig())
	if err != nil {
		t.Fatal(err)
	}
	simRes, err := rppm.Simulate(prog, rppm.BaseConfig())
	if err != nil {
		t.Fatal(err)
	}
	mg := rppm.BottleGraphOf(pred)
	sg := rppm.BottleGraphOfSim(simRes)
	if mg.TotalHeight() <= 0 || sg.TotalHeight() <= 0 {
		t.Fatal("empty bottle graphs")
	}
	// vips is a group-3 benchmark: a worker, not the orchestrating main
	// thread, is the bottleneck — in both views.
	if mg.Bottleneck() == 0 || sg.Bottleneck() == 0 {
		t.Fatalf("main thread reported as bottleneck (model t%d, sim t%d)",
			mg.Bottleneck(), sg.Bottleneck())
	}
}

func TestSuiteIs26Benchmarks(t *testing.T) {
	if n := len(rppm.Benchmarks()); n != 26 {
		t.Fatalf("suite has %d benchmarks, want 26", n)
	}
}

// TestEngineSessionFlow exercises the public engine API: one cached
// profile serves the whole design space, the simulation shares the cached
// workload build, and parallel results match the serial path.
func TestEngineSessionFlow(t *testing.T) {
	var profiles atomic.Int32
	eng := rppm.NewEngine(rppm.EngineOptions{
		Workers: 4,
		Progress: func(ev rppm.EngineEvent) {
			if ev.Kind.String() == "profile" {
				profiles.Add(1)
			}
		},
	})
	s := eng.NewSession()
	bench, err := rppm.BenchmarkByName("streamcluster")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const seed, scale = 1, 0.05

	space := rppm.DesignSpace()
	preds := make([]*rppm.Prediction, len(space))
	err = s.ForEach(ctx, len(space), func(ctx context.Context, i int) error {
		pred, err := s.Predict(ctx, bench, seed, scale, space[i])
		if err != nil {
			return err
		}
		preds[i] = pred
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := profiles.Load(); n != 1 {
		t.Fatalf("%d profiles collected for %d design points, want 1", n, len(space))
	}

	// The session path must agree exactly with the direct serial API.
	prof, err := rppm.Profile(bench.Build(seed, scale))
	if err != nil {
		t.Fatal(err)
	}
	for i, cfg := range space {
		direct, err := rppm.Predict(prof, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if direct.Cycles != preds[i].Cycles {
			t.Fatalf("%s: session prediction %.0f != direct prediction %.0f",
				cfg.Name, preds[i].Cycles, direct.Cycles)
		}
	}

	simSession, err := s.Simulate(ctx, bench, seed, scale, rppm.BaseConfig())
	if err != nil {
		t.Fatal(err)
	}
	direct, err := rppm.Simulate(bench.Build(seed, scale), rppm.BaseConfig())
	if err != nil {
		t.Fatal(err)
	}
	if simSession.Cycles != direct.Cycles {
		t.Fatalf("session simulation %.0f != direct simulation %.0f",
			simSession.Cycles, direct.Cycles)
	}
}

// TestSweepAndRecordFlow exercises the public record/replay surface: a
// one-shot Sweep matches per-config Simulate, and an explicitly recorded
// program profiles and simulates exactly like its generative original.
func TestSweepAndRecordFlow(t *testing.T) {
	bench, err := rppm.BenchmarkByName("hotspot")
	if err != nil {
		t.Fatal(err)
	}
	space := rppm.SweepSpace(7)
	sims, err := rppm.Sweep(context.Background(), bench, 1, 0.05, space, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(sims) != len(space) {
		t.Fatalf("Sweep returned %d results for %d configs", len(sims), len(space))
	}

	prog := bench.Build(1, 0.05)
	rec, err := rppm.Record(prog)
	if err != nil {
		t.Fatal(err)
	}
	for i, cfg := range space {
		res, err := rppm.Simulate(rec, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Cycles != sims[i].Cycles {
			t.Fatalf("%s: recorded-replay simulation %v cycles, sweep %v", cfg.Name, res.Cycles, sims[i].Cycles)
		}
	}
	direct, err := rppm.Simulate(prog, rppm.BaseConfig())
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := rppm.Simulate(rec, rppm.BaseConfig())
	if err != nil {
		t.Fatal(err)
	}
	if direct.Cycles != replayed.Cycles {
		t.Fatalf("replayed simulation diverged: %v vs %v cycles", replayed.Cycles, direct.Cycles)
	}

	pd, err := rppm.Profile(prog)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := rppm.Profile(rec)
	if err != nil {
		t.Fatal(err)
	}
	if pd.TotalInstr() != pr.TotalInstr() || pd.NumThreads != pr.NumThreads {
		t.Fatalf("replayed profile diverged: %d/%d instr, %d/%d threads",
			pr.TotalInstr(), pd.TotalInstr(), pr.NumThreads, pd.NumThreads)
	}
}
