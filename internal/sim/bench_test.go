package sim_test

import (
	"testing"

	"rppm/internal/arch"
	"rppm/internal/sim"
	"rppm/internal/trace"
	"rppm/internal/workload"
)

// BenchmarkSimStep measures the cycle-level simulator's per-instruction cost
// (core model + caches + coherence + scheduling) on a multithreaded barrier
// loop at the paper's base configuration.
func BenchmarkSimStep(b *testing.B) {
	prog := workload.BarrierLoop(4, 8, 20000, 1)
	total := prog.TotalInstructions()
	cfg := arch.Base()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(prog, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(total), "ns/instr")
}

// BenchmarkSimStepSweep measures the simulator's per-instruction cost in
// sweep mode: RunBatch advancing eight design-space configurations over
// one shared decoded trace in interleaved windows. Same workload as
// BenchmarkSimStep, so the two gauges are directly comparable — the sweep
// number additionally replaces generation with shared-decode replay.
func BenchmarkSimStepSweep(b *testing.B) {
	rec, err := trace.Record(workload.BarrierLoop(4, 8, 20000, 1))
	if err != nil {
		b.Fatal(err)
	}
	dec := trace.Decode(rec)
	space := arch.SweepSpace(8)
	results, err := sim.RunBatch(dec, space)
	if err != nil {
		b.Fatal(err)
	}
	perConfig := results[0].TotalInstr() // same trace for every config
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.RunBatch(dec, space); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(space))/float64(perConfig), "ns/instr")
}
