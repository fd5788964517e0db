package sim

// Differential tests for RunBatch: config-batched stepping must be
// bit-identical to serial runs — the batching only changes when each
// engine's turn comes, never what it computes.

import (
	"reflect"
	"testing"

	"rppm/internal/arch"
	"rppm/internal/prng"
	"rppm/internal/trace"
	"rppm/internal/workload"
)

// batchSpace draws a randomized sample from the design space: the sweep
// points shuffled by a seeded prng, so the batch mixes near and far
// configurations without the test being flaky.
func batchSpace(seed uint64, n int) []arch.Config {
	space := arch.SweepSpace(16)
	r := prng.New(seed)
	for i := len(space) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		space[i], space[j] = space[j], space[i]
	}
	return space[:n]
}

func TestRunBatchMatchesSerialDecoded(t *testing.T) {
	for _, name := range []string{"kmeans", "bodytrack"} {
		bm, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := trace.Record(bm.Build(1, 0.02))
		if err != nil {
			t.Fatal(err)
		}
		dec := trace.Decode(rec)
		cfgs := batchSpace(7, 6)
		batched, err := RunBatch(dec, cfgs)
		if err != nil {
			t.Fatal(err)
		}
		for i, cfg := range cfgs {
			serial, err := Run(dec, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(batched[i], serial) {
				t.Fatalf("%s config %d: batched result differs from serial", name, i)
			}
		}
	}
}

// TestRunBatchMatchesSerialGenerated covers the Item staging path: RunBatch
// accepts any Program, and generator-backed programs hand each engine an
// independent deterministic stream.
func TestRunBatchMatchesSerialGenerated(t *testing.T) {
	prog := workload.BarrierLoop(4, 4, 5000, 1)
	cfgs := batchSpace(3, 4)
	batched, err := RunBatch(prog, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	for i, cfg := range cfgs {
		serial, err := Run(prog, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(batched[i], serial) {
			t.Fatalf("config %d: batched result differs from serial", i)
		}
	}
}

// TestRunBatchWindowBoundary pins the resumable scheduler against tiny
// budgets: a single-config batch still matches serial even though every
// quantum is interrupted many times (batch of one isolates the
// advance/resume machinery from interleaving).
func TestRunBatchWindowBoundary(t *testing.T) {
	bm, err := workload.ByName("nn")
	if err != nil {
		t.Fatal(err)
	}
	prog := bm.Build(1, 0.02)
	cfg := arch.Base()
	serial, err := Run(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, budget := range []uint64{1, 7, 100} {
		e, err := newEngine(prog, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for {
			done, err := e.advance(budget)
			if err != nil {
				t.Fatal(err)
			}
			if done {
				break
			}
		}
		if !reflect.DeepEqual(e.result(), serial) {
			t.Fatalf("budget %d: sliced run differs from serial", budget)
		}
	}
}

func TestRunBatchInvalidConfig(t *testing.T) {
	prog := workload.BarrierLoop(2, 2, 100, 1)
	cfgs := []arch.Config{arch.Base(), arch.Base()}
	cfgs[1].ROBSize = 0
	if _, err := RunBatch(prog, cfgs); err == nil {
		t.Fatal("invalid config accepted by RunBatch")
	}
}

func TestRunBatchDeadlock(t *testing.T) {
	prog := &trace.SliceProgram{
		ProgName: "deadlock",
		Threads: [][]trace.Item{{
			trace.SyncItem(trace.Event{Kind: trace.SyncThreadJoin, Arg: 0}),
			trace.SyncItem(trace.Event{Kind: trace.SyncThreadExit}),
		}},
	}
	if _, err := RunBatch(prog, []arch.Config{arch.Base(), arch.Base()}); err == nil {
		t.Fatal("self-join deadlock not detected by RunBatch")
	}
}

func TestRunBatchEmpty(t *testing.T) {
	res, err := RunBatch(workload.BarrierLoop(2, 2, 100, 1), nil)
	if err != nil || len(res) != 0 {
		t.Fatalf("empty batch: res %v, err %v", res, err)
	}
}
