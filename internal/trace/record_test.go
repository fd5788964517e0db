package trace_test

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"rppm/internal/trace"
	"rppm/internal/workload"
)

// drain collects a stream's items via mixed Next/NextBatch calls with
// awkward buffer sizes, exercising batch boundaries that fall inside
// multi-word control sequences.
func drain(t *testing.T, s trace.ThreadStream, batchSizes []int) []trace.Item {
	t.Helper()
	var out []trace.Item
	for i := 0; ; i++ {
		if len(batchSizes) == 0 || batchSizes[i%len(batchSizes)] == 0 {
			it, ok := s.Next()
			if !ok {
				return out
			}
			out = append(out, it)
			continue
		}
		buf := make([]trace.Item, batchSizes[i%len(batchSizes)])
		n := s.NextBatch(buf)
		if n == 0 {
			return out
		}
		out = append(out, buf[:n]...)
	}
}

// itemsEqual compares items under the ThreadStream contract: the Sync field
// of instruction items is unspecified.
func itemsEqual(a, b trace.Item) bool {
	if a.IsSync != b.IsSync {
		return false
	}
	if a.IsSync {
		return a.Sync == b.Sync
	}
	return a.Instr == b.Instr
}

func checkRecorded(t *testing.T, p trace.Program) *trace.Recorded {
	t.Helper()
	rec, err := trace.Record(p)
	if err != nil {
		t.Fatalf("Record(%s): %v", p.Name(), err)
	}
	if rec.Name() != p.Name() || rec.NumThreads() != p.NumThreads() {
		t.Fatalf("recorded identity mismatch: %s/%d vs %s/%d",
			rec.Name(), rec.NumThreads(), p.Name(), p.NumThreads())
	}
	sizes := [][]int{
		nil,          // pure Next
		{256},        // the profiler/simulator batch size
		{1, 3, 7, 2}, // adversarial small batches
		{5, 0, 1},    // batches interleaved with Next
	}
	for tid := 0; tid < p.NumThreads(); tid++ {
		want := drain(t, p.Thread(tid), []int{256})
		for _, bs := range sizes {
			got := drain(t, rec.Thread(tid), bs)
			if len(got) != len(want) {
				t.Fatalf("%s thread %d (batches %v): replayed %d items, generated %d",
					p.Name(), tid, bs, len(got), len(want))
			}
			for i := range want {
				if !itemsEqual(got[i], want[i]) {
					t.Fatalf("%s thread %d item %d (batches %v):\n replay   %+v\n generate %+v",
						p.Name(), tid, i, bs, got[i], want[i])
				}
			}
		}
	}
	return rec
}

// TestRecordReplayDifferential replays recorded suite benchmarks
// item-for-item against their generated streams.
func TestRecordReplayDifferential(t *testing.T) {
	names := []string{"kmeans", "streamcluster", "canneal", "nn", "lud"}
	if testing.Short() {
		names = names[:2]
	}
	for _, name := range names {
		bm, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		prog := bm.Build(1, 0.05)
		rec := checkRecorded(t, prog)
		if bpi := rec.BytesPerItem(); bpi > 12 {
			t.Errorf("%s: %.1f encoded bytes per item, want a compact stream (<= 12)", name, bpi)
		}
		if rec.Instructions() == 0 || rec.SyncEvents() == 0 {
			t.Errorf("%s: empty recording stats: %d instrs, %d syncs",
				name, rec.Instructions(), rec.SyncEvents())
		}
	}
}

// edgeCaseProgram is a hand-built stream that exercises every escape path
// of the encoding: absolute PC jumps (tiny, huge, backward), cross-region
// address hops beyond the delta range, unusual field combinations, and
// extreme sync arguments. Shared with the persistence round-trip tests.
func edgeCaseProgram() trace.Program {
	instr := func(in trace.Instr) trace.Item { return trace.InstrItem(in) }
	items := []trace.Item{
		// PC chain warm-up from zero, then a regular run.
		instr(trace.Instr{Class: trace.IntALU, Dst: 0, Src1: -1, Src2: -1, PC: 0}),
		instr(trace.Instr{Class: trace.IntALU, Dst: 1, Src1: 0, Src2: -1, PC: 4}),
		// Huge forward jump (needs the extended PC control), then backward.
		instr(trace.Instr{Class: trace.FPMul, Dst: 63, Src1: 62, Src2: 61, PC: 1 << 61}),
		instr(trace.Instr{Class: trace.IntDiv, Dst: 5, Src1: -1, Src2: -1, PC: 12}),
		// Memory warm-up: both address registers start cold.
		instr(trace.Instr{Class: trace.Load, Dst: 2, Src1: -1, Src2: -1, Addr: 0x1000_0000_0000, PC: 16}),
		instr(trace.Instr{Class: trace.Store, Dst: -1, Src1: 2, Src2: -1, Addr: 0x2000_0000_0000, PC: 20}),
		// Near deltas against both registers, including negative ones.
		instr(trace.Instr{Class: trace.Load, Dst: 3, Src1: -1, Src2: -1, Addr: 0x1000_0000_0040, PC: 24}),
		instr(trace.Instr{Class: trace.Load, Dst: 4, Src1: 3, Src2: -1, Addr: 0x2000_0000_0000 - 64, PC: 28}),
		// Extreme addresses.
		instr(trace.Instr{Class: trace.Store, Dst: -1, Src1: -1, Src2: -1, Addr: math.MaxUint64, PC: 32}),
		instr(trace.Instr{Class: trace.Load, Dst: 6, Src1: -1, Src2: -1, Addr: 0, PC: 36}),
		// Branches: taken, not-taken, max site id, and (illegally shaped
		// but encodable) a branch carrying an address.
		instr(trace.Instr{Class: trace.Branch, Dst: -1, Src1: 6, Src2: -1, BranchID: 0, Taken: true, PC: 40}),
		instr(trace.Instr{Class: trace.Branch, Dst: -1, Src1: -1, Src2: -1, BranchID: math.MaxUint16, Taken: false, PC: 44}),
		instr(trace.Instr{Class: trace.Branch, Dst: -1, Src1: -1, Src2: -1, BranchID: 7, Taken: true, Addr: 123456, PC: 48}),
		// Unusual combinations: ALU with an address, load with branch fields.
		instr(trace.Instr{Class: trace.IntALU, Dst: 7, Src1: -1, Src2: -1, Addr: 0xDEAD_BEEF, PC: 52}),
		instr(trace.Instr{Class: trace.Load, Dst: 8, Src1: -1, Src2: -1, Addr: 64, BranchID: 3, Taken: true, PC: 56}),
		// Sync events: inline args, negative args, and args beyond 24 bits.
		trace.SyncItem(trace.Event{Kind: trace.SyncBarrier, Obj: math.MaxUint32, Arg: 4}),
		trace.SyncItem(trace.Event{Kind: trace.SyncThreadJoin, Arg: -3}),
		trace.SyncItem(trace.Event{Kind: trace.SyncCondWaitMarker, Obj: 9, Arg: 1 << 30}),
		trace.SyncItem(trace.Event{Kind: trace.SyncThreadExit}),
	}
	return &trace.SliceProgram{ProgName: "edges", Threads: [][]trace.Item{items}}
}

// TestRecordReplayEdgeCases replays edgeCaseProgram through the recorder.
func TestRecordReplayEdgeCases(t *testing.T) {
	checkRecorded(t, edgeCaseProgram())
}

// TestRecordRejectsUnencodable: streams outside the architectural register
// and class envelope are reported, not silently truncated.
func TestRecordRejectsUnencodable(t *testing.T) {
	cases := []trace.Instr{
		{Class: trace.IntALU, Dst: 127, Src1: -1, Src2: -1}, // dst+1 overflows 7 bits
		{Class: trace.IntALU, Dst: -2, Src1: -1, Src2: -1},  // below -1
		{Class: trace.Class(200), Dst: -1, Src1: -1, Src2: -1},
	}
	for i, in := range cases {
		p := &trace.SliceProgram{ProgName: fmt.Sprintf("bad%d", i),
			Threads: [][]trace.Item{{trace.InstrItem(in)}}}
		if _, err := trace.Record(p); err == nil {
			t.Errorf("case %d: Record accepted unencodable instr %+v", i, in)
		}
	}
}

// TestConcurrentReplay replays one recording from many goroutines at once
// (run under -race in CI): cursors must be fully independent.
func TestConcurrentReplay(t *testing.T) {
	bm, err := workload.ByName("fluidanimate")
	if err != nil {
		t.Fatal(err)
	}
	prog := bm.Build(1, 0.02)
	rec, err := trace.Record(prog)
	if err != nil {
		t.Fatal(err)
	}
	type count struct{ instrs, syncs int }
	want := make([]count, rec.NumThreads())
	for tid := range want {
		i, s := trace.CountItems(rec.Thread(tid))
		want[tid] = count{i, s}
	}

	const replayers = 16
	var wg sync.WaitGroup
	errs := make(chan string, replayers*rec.NumThreads())
	for r := 0; r < replayers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			buf := make([]trace.Item, 64+r) // distinct batch sizes per goroutine
			for tid := 0; tid < rec.NumThreads(); tid++ {
				var got count
				s := rec.Thread(tid)
				for {
					n := s.NextBatch(buf)
					if n == 0 {
						break
					}
					for i := range buf[:n] {
						if buf[i].IsSync {
							got.syncs++
						} else {
							got.instrs++
						}
					}
				}
				if got != want[tid] {
					errs <- fmt.Sprintf("replayer %d thread %d: got %+v, want %+v", r, tid, got, want[tid])
				}
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
