package core

import (
	"math"
	"testing"

	"rppm/internal/arch"
	"rppm/internal/profiler"
	"rppm/internal/sim"
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

func TestPredictCompletes(t *testing.T) {
	prof := profileOf(t, "hotspot", 0.05)
	pred, err := Predict(prof, arch.Base())
	if err != nil {
		t.Fatal(err)
	}
	if pred.Cycles <= 0 {
		t.Fatal("zero predicted time")
	}
	if pred.TotalInstr() != prof.TotalInstr() {
		t.Fatalf("prediction covers %d instructions, profile has %d",
			pred.TotalInstr(), prof.TotalInstr())
	}
}

func TestPredictionDeterministic(t *testing.T) {
	prof := profileOf(t, "srad", 0.04)
	a, err := Predict(prof, arch.Base())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Predict(prof, arch.Base())
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles {
		t.Fatalf("non-deterministic prediction: %v vs %v", a.Cycles, b.Cycles)
	}
}

func TestBarrierIdleAccounting(t *testing.T) {
	// In a barrier loop, faster threads must accumulate idle time and all
	// threads must leave each barrier together: finish times almost equal.
	prog := workload.BarrierLoop(4, 10, 2000, 7)
	prof, err := profiler.Run(prog, profiler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pred, err := Predict(prof, arch.Base())
	if err != nil {
		t.Fatal(err)
	}
	var minF, maxF float64 = math.Inf(1), 0
	for _, tp := range pred.Threads {
		if tp.FinishCycle < minF {
			minF = tp.FinishCycle
		}
		if tp.FinishCycle > maxF {
			maxF = tp.FinishCycle
		}
		if tp.IdleCycles < 0 {
			t.Fatal("negative idle time")
		}
	}
	if (maxF-minF)/maxF > 0.05 {
		t.Fatalf("finish skew too large: [%v, %v]", minF, maxF)
	}
}

func TestTotalIsMaxFinish(t *testing.T) {
	prof := profileOf(t, "lud", 0.04)
	pred, err := Predict(prof, arch.Base())
	if err != nil {
		t.Fatal(err)
	}
	maxF := 0.0
	for _, tp := range pred.Threads {
		if tp.FinishCycle > maxF {
			maxF = tp.FinishCycle
		}
	}
	if pred.Cycles != maxF {
		t.Fatalf("Cycles %v != max finish %v", pred.Cycles, maxF)
	}
}

func TestStackSyncMatchesIdle(t *testing.T) {
	prof := profileOf(t, "nw", 0.04)
	pred, err := Predict(prof, arch.Base())
	if err != nil {
		t.Fatal(err)
	}
	for tid, tp := range pred.Threads {
		if tp.Stack.Sync != tp.IdleCycles {
			t.Fatalf("thread %d: stack sync %v != idle %v", tid, tp.Stack.Sync, tp.IdleCycles)
		}
	}
}

func TestRPPMBeatsBaselinesOnImbalanced(t *testing.T) {
	// freqmine: main thread does the heavy lifting; blackscholes: main does
	// nothing. MAIN must underestimate blackscholes badly, RPPM must not.
	prof := profileOf(t, "blackscholes", 0.05)
	cfg := arch.Base()
	simRes, err := sim.Run(mustBuild(t, "blackscholes", 0.05), cfg)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := Predict(prof, cfg)
	if err != nil {
		t.Fatal(err)
	}
	mainPred, err := PredictMain(prof, cfg)
	if err != nil {
		t.Fatal(err)
	}
	errOf := func(p float64) float64 { return math.Abs(p-simRes.Cycles) / simRes.Cycles }
	if errOf(mainPred) < 0.5 {
		t.Fatalf("MAIN error %.2f unexpectedly small for a worker-pool benchmark", errOf(mainPred))
	}
	if errOf(pred.Cycles) > 0.35 {
		t.Fatalf("RPPM error %.2f too large for blackscholes", errOf(pred.Cycles))
	}
	if errOf(pred.Cycles) >= errOf(mainPred) {
		t.Fatalf("RPPM (%.2f) not better than MAIN (%.2f)", errOf(pred.Cycles), errOf(mainPred))
	}
}

func mustBuild(t *testing.T, name string, scale float64) trace.Program {
	t.Helper()
	bm, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return bm.Build(1, scale)
}

func TestCritAtLeastMainForWorkerPools(t *testing.T) {
	prof := profileOf(t, "swaptions", 0.05)
	cfg := arch.Base()
	mainP, _ := PredictMain(prof, cfg)
	critP, _ := PredictCrit(prof, cfg)
	if critP < mainP {
		t.Fatalf("CRIT %v < MAIN %v; CRIT takes the max over threads", critP, mainP)
	}
}

func TestClassifyCondvars(t *testing.T) {
	// vips uses producer-consumer condvars (main produces, workers consume).
	prof := profileOf(t, "vips", 0.05)
	classes := ClassifyCondvars(prof)
	foundPC := false
	for _, c := range classes {
		if c == CondvarProducerConsumer {
			foundPC = true
		}
	}
	if !foundPC {
		t.Fatal("vips condvars not classified as producer-consumer")
	}
}

func TestClassifyCondvarBarrier(t *testing.T) {
	// A condvar-barrier program: all threads emit wait markers, nobody
	// broadcasts explicitly.
	b := workload.NewBuilder("cvbar", 4, 1)
	b.CreateWorkers()
	cv := b.NewObj()
	all := b.AllThreads()
	for _, tid := range all {
		b.Compute(tid, workload.Block{N: 500, Mix: workload.MixInt()})
	}
	b.CondBarrier(cv, all...)
	prog := b.Finish()
	prof, err := profiler.Run(prog, profiler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	classes := ClassifyCondvars(prof)
	if classes[cv] != CondvarBarrier {
		t.Fatalf("condvar barrier classified as %v", classes[cv])
	}
	// And prediction must treat it as a barrier: all finish together.
	pred, err := Predict(prof, arch.Base())
	if err != nil {
		t.Fatal(err)
	}
	if pred.Cycles <= 0 {
		t.Fatal("prediction failed")
	}
}

func TestCriticalSectionSerializationPredicted(t *testing.T) {
	// Same program as the simulator test: serialized critical sections must
	// produce idle time in the prediction too.
	b := workload.NewBuilder("cs-serial", 3, 1)
	b.CreateWorkers()
	lock := b.NewObj()
	body := workload.Block{N: 20000, Mix: workload.MixInt(), PrivateBytes: 32 << 10}
	for _, tid := range b.Workers() {
		b.Critical(tid, lock, body)
	}
	prog := b.Finish()
	prof, err := profiler.Run(prog, profiler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pred, err := Predict(prof, arch.Base())
	if err != nil {
		t.Fatal(err)
	}
	idle := pred.Threads[1].IdleCycles + pred.Threads[2].IdleCycles
	section := pred.Threads[1].ActiveCycles
	if idle < section*0.5 {
		t.Fatalf("predicted no serialization: idle %v vs section %v", idle, section)
	}
}

func TestPredictAgainstSimulatorWholeRodinia(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-validation in short mode")
	}
	// The headline check, in miniature: RPPM should track the simulator
	// within a loose bound on every Rodinia benchmark at test scale.
	cfg := arch.Base()
	for _, bm := range workload.Suite() {
		if bm.Kind != workload.Rodinia {
			continue
		}
		prog := bm.Build(1, 0.15)
		prof, err := profiler.Run(bm.Build(1, 0.15), profiler.Options{})
		if err != nil {
			t.Fatalf("%s: %v", bm.Name, err)
		}
		simRes, err := sim.Run(prog, cfg)
		if err != nil {
			t.Fatalf("%s: %v", bm.Name, err)
		}
		pred, err := Predict(prof, cfg)
		if err != nil {
			t.Fatalf("%s: %v", bm.Name, err)
		}
		e := math.Abs(pred.Cycles-simRes.Cycles) / simRes.Cycles
		if e > 0.30 {
			t.Errorf("%s: RPPM error %.1f%% vs simulator", bm.Name, e*100)
		}
	}
}

func TestInvalidConfigRejected(t *testing.T) {
	prof := profileOf(t, "nn", 0.02)
	cfg := arch.Base()
	cfg.Cores = 0
	if _, err := Predict(prof, cfg); err == nil {
		t.Fatal("invalid config accepted")
	}
	if _, err := PredictMain(prof, cfg); err == nil {
		t.Fatal("invalid config accepted by MAIN")
	}
	if _, err := PredictCrit(prof, cfg); err == nil {
		t.Fatal("invalid config accepted by CRIT")
	}
}

// TestUnterminatedThreadRejected: a thread whose event stream does not end
// with its exit (as a checksummed but hand-made profile file can carry)
// is rejected with an error; the symbolic execution would otherwise run
// past its last epoch.
func TestUnterminatedThreadRejected(t *testing.T) {
	for _, events := range [][]trace.Event{nil, {{Kind: trace.SyncBarrier, Obj: 1, Arg: 1}}} {
		tp := &profiler.ThreadProfile{Events: events}
		for range events {
			tp.Epochs = append(tp.Epochs, profiler.NewEpoch())
		}
		prof := &profiler.Profile{Name: "unterminated", NumThreads: 1, Threads: []*profiler.ThreadProfile{tp}}
		if _, err := Predict(prof, arch.Base()); err == nil {
			t.Fatalf("%d events without a thread exit accepted", len(events))
		}
	}
}
