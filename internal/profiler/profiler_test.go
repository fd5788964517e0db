package profiler

import (
	"testing"

	"rppm/internal/trace"
	"rppm/internal/workload"
)

func profileBench(t *testing.T, name string, scale float64) *Profile {
	t.Helper()
	bm, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Run(bm.Build(1, scale), Options{})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestProfileStructureInvariant(t *testing.T) {
	p := profileBench(t, "hotspot", 0.05)
	for tid, tp := range p.Threads {
		if len(tp.Epochs) != len(tp.Events) {
			t.Fatalf("thread %d: %d epochs vs %d events", tid, len(tp.Epochs), len(tp.Events))
		}
		if len(tp.Events) == 0 || tp.Events[len(tp.Events)-1].Kind != trace.SyncThreadExit {
			t.Fatalf("thread %d does not end with exit", tid)
		}
	}
}

func TestInstructionCountMatchesWorkload(t *testing.T) {
	bm, _ := workload.ByName("srad")
	prog := bm.Build(3, 0.05)
	want := prog.TotalInstructions()
	p, err := Run(bm.Build(3, 0.05), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := int(p.TotalInstr()); got != want {
		t.Fatalf("profiled %d instructions, workload has %d", got, want)
	}
}

func TestDeterministicProfiles(t *testing.T) {
	a := profileBench(t, "kmeans", 0.04)
	b := profileBench(t, "kmeans", 0.04)
	if a.TotalInstr() != b.TotalInstr() {
		t.Fatal("instruction counts differ between identical runs")
	}
	for tid := range a.Threads {
		ae, be := a.Threads[tid].Aggregate(), b.Threads[tid].Aggregate()
		if ae.PrivateRD.Count() != be.PrivateRD.Count() ||
			ae.GlobalRD.Count() != be.GlobalRD.Count() ||
			ae.Branch.Branches() != be.Branch.Branches() {
			t.Fatalf("thread %d profiles differ between identical runs", tid)
		}
	}
}

func TestMemAccountingConsistent(t *testing.T) {
	p := profileBench(t, "bfs", 0.05)
	for tid, tp := range p.Threads {
		agg := tp.Aggregate()
		if agg.PrivateRD.Count() != agg.DataAccesses() {
			t.Fatalf("thread %d: %d private RD samples vs %d accesses",
				tid, agg.PrivateRD.Count(), agg.DataAccesses())
		}
		if agg.GlobalRD.Count() != agg.DataAccesses() {
			t.Fatalf("thread %d: %d global RD samples vs %d accesses",
				tid, agg.GlobalRD.Count(), agg.DataAccesses())
		}
		loads := agg.Mix[trace.Load]
		stores := agg.Mix[trace.Store]
		if loads != agg.Loads || stores != agg.Stores {
			t.Fatalf("thread %d: mix loads/stores (%d/%d) vs counters (%d/%d)",
				tid, loads, stores, agg.Loads, agg.Stores)
		}
	}
}

func TestGlobalRDNotLargerPopulationOfInfinites(t *testing.T) {
	// Positive interference: for shared data, the global distribution must
	// see fewer cold misses than the sum of per-thread cold misses, because
	// another thread's first touch warms the line globally.
	p := profileBench(t, "kmeans", 0.05) // kmeans has a hot shared region
	var privInf, globInf uint64
	for _, tp := range p.Threads {
		agg := tp.Aggregate()
		privInf += agg.PrivateRD.InfiniteCount()
		globInf += agg.GlobalRD.InfiniteCount()
	}
	if globInf >= privInf {
		t.Fatalf("global cold misses %d >= private %d: sharing not captured", globInf, privInf)
	}
}

func TestCoherenceDetected(t *testing.T) {
	// fluidanimate writes shared data inside critical sections.
	p := profileBench(t, "fluidanimate", 0.05)
	var inv uint64
	for _, tp := range p.Threads {
		inv += tp.Aggregate().CoherenceInvalidations
	}
	if inv == 0 {
		t.Fatal("no coherence invalidations detected in a write-sharing workload")
	}
}

func TestBarrierOnlyWorkloadEpochCount(t *testing.T) {
	prog := workload.BarrierLoop(4, 10, 200, 1)
	p, err := Run(prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Main thread: 3 creates + 10 barriers + 3 joins + exit = 17 events.
	main := p.Threads[0]
	if len(main.Events) != 17 {
		t.Fatalf("main thread has %d events, want 17", len(main.Events))
	}
	// Workers: 10 barriers + exit.
	for tid := 1; tid < 4; tid++ {
		if got := len(p.Threads[tid].Events); got != 11 {
			t.Fatalf("worker %d has %d events, want 11", tid, got)
		}
	}
}

func TestSyncCountsTableIII(t *testing.T) {
	// Shape checks against Table III: fluidanimate is critical-section
	// dominated; streamcluster is barrier dominated; blackscholes has none.
	fluid := profileBench(t, "fluidanimate", 0.05)
	cs, bar, _ := fluid.SyncCounts()
	if cs <= bar || cs < 100 {
		t.Fatalf("fluidanimate: cs=%d barriers=%d, want CS-dominated", cs, bar)
	}
	sc := profileBench(t, "streamcluster-parsec", 0.05)
	cs, bar, _ = sc.SyncCounts()
	if bar <= cs {
		t.Fatalf("parsec streamcluster: cs=%d barriers=%d, want barrier-dominated", cs, bar)
	}
	bs := profileBench(t, "blackscholes", 0.05)
	cs, bar, cv := bs.SyncCounts()
	if cs != 0 || bar != 0 || cv != 0 {
		t.Fatalf("blackscholes: %d/%d/%d, want 0/0/0", cs, bar, cv)
	}
}

func TestWindowsRecorded(t *testing.T) {
	p := profileBench(t, "cfd", 0.05)
	found := false
	for _, tp := range p.Threads {
		for _, ep := range tp.Epochs {
			for _, w := range ep.Windows {
				found = true
				if w.Len() == 0 {
					t.Fatal("empty window recorded")
				}
				if len(w.Dep1) != w.Len() || len(w.Dep2) != w.Len() ||
					len(w.GlobalRD) != w.Len() || len(w.IsLoad) != w.Len() {
					t.Fatal("window arrays have inconsistent lengths")
				}
				for i := 0; i < w.Len(); i++ {
					if int(w.Dep1[i]) >= i || int(w.Dep2[i]) >= i {
						t.Fatal("dependence edge points forward")
					}
					if w.GlobalRD[i] >= 0 && !w.Classes[i].IsMem() {
						t.Fatal("non-memory instruction has a reuse distance")
					}
				}
			}
		}
	}
	if !found {
		t.Fatal("no micro-trace windows recorded")
	}
}

func TestWindowSizeOption(t *testing.T) {
	bm, _ := workload.ByName("nn")
	p, err := Run(bm.Build(1, 0.05), Options{WindowSize: 128, WindowInterval: 1024})
	if err != nil {
		t.Fatal(err)
	}
	for _, tp := range p.Threads {
		for _, ep := range tp.Epochs {
			for _, w := range ep.Windows {
				if w.Len() > 128 {
					t.Fatalf("window of %d instructions exceeds configured 128", w.Len())
				}
			}
		}
	}
}

func TestProducerConsumerNoDeadlock(t *testing.T) {
	// vips is fully producer-consumer driven; the functional engine must
	// order consumers after producers.
	p := profileBench(t, "vips", 0.05)
	if p.TotalInstr() == 0 {
		t.Fatal("vips profiled zero instructions")
	}
}

func TestWholeSuiteProfiles(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-suite profiling in short mode")
	}
	for _, bm := range workload.Suite() {
		p, err := Run(bm.Build(1, 0.03), Options{})
		if err != nil {
			t.Errorf("%s: %v", bm.Name, err)
			continue
		}
		if p.TotalInstr() == 0 {
			t.Errorf("%s: zero instructions", bm.Name)
		}
	}
}

func TestColdMissesBounded(t *testing.T) {
	// Cold misses (infinite RDs) can never exceed the number of accesses,
	// and every first touch of a line is infinite: the count of infinites
	// is at least the number of distinct lines touched.
	p := profileBench(t, "backprop", 0.04)
	for tid, tp := range p.Threads {
		agg := tp.Aggregate()
		if agg.PrivateRD.InfiniteCount() > agg.PrivateRD.Count() {
			t.Fatalf("thread %d: more infinites than samples", tid)
		}
	}
}

func TestDeadlockDetected(t *testing.T) {
	// A thread joining itself can never proceed.
	prog := &trace.SliceProgram{
		ProgName: "deadlock",
		Threads: [][]trace.Item{{
			trace.SyncItem(trace.Event{Kind: trace.SyncThreadJoin, Arg: 0}),
			trace.SyncItem(trace.Event{Kind: trace.SyncThreadExit}),
		}},
	}
	if _, err := Run(prog, Options{}); err == nil {
		t.Fatal("self-join deadlock not detected")
	}
}

func TestBareStreamEndTreatedAsExit(t *testing.T) {
	prog := &trace.SliceProgram{
		ProgName: "bare",
		Threads:  [][]trace.Item{{trace.InstrItem(trace.Instr{Class: trace.IntALU, Dst: 0, Src1: -1, Src2: -1})}},
	}
	p, err := Run(prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tp := p.Threads[0]
	if len(tp.Events) != 1 || tp.Events[0].Kind != trace.SyncThreadExit {
		t.Fatalf("events = %v", tp.Events)
	}
	if tp.TotalInstr() != 1 {
		t.Fatalf("instr = %d", tp.TotalInstr())
	}
}

func BenchmarkProfileBackprop(b *testing.B) {
	bm, _ := workload.ByName("backprop")
	for i := 0; i < b.N; i++ {
		if _, err := Run(bm.Build(1, 0.1), Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
