// Benchmarks regenerating every table and figure of the paper's evaluation
// (go test -bench=. -benchmem). Each benchmark runs the corresponding
// experiment harness at a reduced scale so the whole file completes in
// minutes; cmd/rppm-experiments runs the same harnesses at full fidelity
// and prints the reports.
package rppm_test

import (
	"context"
	"testing"

	"rppm"
	"rppm/internal/experiments"
	"rppm/internal/sim"
)

// benchCfg is the reduced-fidelity configuration used by benchmarks.
var benchCfg = experiments.Config{Scale: 0.15, Seed: 1}

func BenchmarkTableI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.TableI(2000, 5, 1)
		if len(res.MonteCarlo) == 0 {
			b.Fatal("empty Table I")
		}
	}
}

func BenchmarkTableIII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.TableIII(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Names) != 10 {
			b.Fatalf("Table III covers %d benchmarks, want 10", len(res.Names))
		}
	}
}

func BenchmarkTableV(b *testing.B) {
	small := experiments.Config{Scale: 0.08, Seed: 1} // 16 benchmarks x 5 simulated configs
	for i := 0; i < b.N; i++ {
		res, err := experiments.TableV(small)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 16 {
			b.Fatalf("Table V covers %d benchmarks, want 16", len(res.Rows))
		}
	}
}

func BenchmarkFigure4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure4(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 26 {
			b.Fatalf("Figure 4 covers %d benchmarks, want 26", len(res.Rows))
		}
	}
}

func BenchmarkFigure5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure5(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 26 {
			b.Fatal("Figure 5 incomplete")
		}
	}
}

func BenchmarkFigure6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure6(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 10 {
			b.Fatal("Figure 6 incomplete")
		}
	}
}

// BenchmarkSweep16 is the record-once/replay-many design-space sweep: 16
// configurations simulated against one recorded trace through
// Session.SimulateSweep. Compare against BenchmarkSweep16Regen, the
// per-config regeneration baseline it replaces; both produce bit-identical
// results (TestSweepMatchesPerConfigSimulate).
func BenchmarkSweep16(b *testing.B) {
	bm, err := rppm.BenchmarkByName("kmeans")
	if err != nil {
		b.Fatal(err)
	}
	space := rppm.SweepSpace(16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A fresh session per iteration: the point is the cost of a cold
		// 16-config sweep (one capture + 16 replays), not cache hits.
		s := rppm.NewEngine(rppm.EngineOptions{Workers: 1}).NewSession()
		if _, err := s.SimulateSweep(context.Background(), bm, 1, benchCfg.Scale, space); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(space))/1e6, "ms/config")
}

// BenchmarkSweepSkewed is the sweep benchmark on a registry workload: the
// skewed-sharing family at its golden scale, whose trace is large enough
// to cross the config-batched stepping gate — so this measures the batched
// path on a zipf-skewed, coherence-heavy instruction mix rather
// than the uniform footprints of the fixed suite.
func BenchmarkSweepSkewed(b *testing.B) {
	bm, err := rppm.ResolveBenchmark("skewed-sharing")
	if err != nil {
		b.Fatal(err)
	}
	space := rppm.SweepSpace(16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := rppm.NewEngine(rppm.EngineOptions{Workers: 1}).NewSession()
		if _, err := s.SimulateSweep(context.Background(), bm, 1, 0.5, space); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(space))/1e6, "ms/config")
}

// BenchmarkSweep16Regen is the pre-record/replay baseline: the same 16
// configurations, each simulation regenerating the instruction streams
// from the prng-driven generators.
func BenchmarkSweep16Regen(b *testing.B) {
	bm, err := rppm.BenchmarkByName("kmeans")
	if err != nil {
		b.Fatal(err)
	}
	space := rppm.SweepSpace(16)
	prog := bm.Build(1, benchCfg.Scale)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, cfg := range space {
			if _, err := sim.Run(prog, cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(space))/1e6, "ms/config")
}

func BenchmarkAblationGlobalRD(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationGlobalRD(benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationCoherence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationCoherence(benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationMLP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationMLP(benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}
