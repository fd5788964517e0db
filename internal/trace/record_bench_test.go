package trace_test

import (
	"testing"

	"rppm/internal/trace"
	"rppm/internal/workload"
)

// benchProgram is the same workload BenchmarkProfilerInstr and
// BenchmarkSimStep use, so the per-instruction costs compose.
func benchProgram(b *testing.B) (trace.Program, int) {
	b.Helper()
	prog := workload.BarrierLoop(4, 8, 20000, 1)
	return prog, prog.TotalInstructions()
}

// BenchmarkRecord measures the one-time capture cost per instruction
// (one generation pass plus packing).
func BenchmarkRecord(b *testing.B) {
	prog, total := benchProgram(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := trace.Record(prog); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(total), "ns/instr")
}

// BenchmarkReplay measures the recorded-replay decode throughput — the
// per-instruction stream cost every simulator configuration in a sweep
// pays instead of regeneration.
func BenchmarkReplay(b *testing.B) {
	prog, total := benchProgram(b)
	rec, err := trace.Record(prog)
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]trace.Item, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for tid := 0; tid < rec.NumThreads(); tid++ {
			s := rec.Replay(tid)
			for s.NextBatch(buf) != 0 {
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(total), "ns/instr")
}

// BenchmarkGenerate is the regeneration baseline BenchmarkReplay replaces.
func BenchmarkGenerate(b *testing.B) {
	prog, total := benchProgram(b)
	buf := make([]trace.Item, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for tid := 0; tid < prog.NumThreads(); tid++ {
			s := prog.Thread(tid)
			for s.NextBatch(buf) != 0 {
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(total), "ns/instr")
}

// BenchmarkDecodeShared measures the one-time cost of expanding a
// recording into the shared struct-of-arrays view a sweep amortizes over
// all its configurations.
func BenchmarkDecodeShared(b *testing.B) {
	prog, total := benchProgram(b)
	rec, err := trace.Record(prog)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trace.Decode(rec)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(total), "ns/instr")
}
